(* check-suite: every bundled workload x every registry stack through
   compile/build/optimize, Check.circuit, Timing.analyze, lower/model and
   Chisel.emit, with no simulation: the `muirc check --timing` path.
   These layers are a sliver of every simulating workload, so only this
   one measures them.  The seed sets only the round-robin order.

   Gates: no error diagnostics, and every static timing bound is at most
   the workload's cycles locked at baseline in bench/baseline.json (a
   bound under a stack that makes the design slower than baseline would
   still pass; the stacks never do on the bundled workloads). *)

open Common
module P = Muir_pipeline.Pipeline
module W = Muir_workloads.Workloads
module S = Muir_opt.Stacks

type item = { w : W.t; spec : S.spec; locked : int }

let setup ~baseline : item array =
  let locked = Sim_suite.locked_cycles baseline in
  Array.of_list
    (List.concat_map
       (fun (w : W.t) ->
         ignore (W.program w);
         let c =
           match Hashtbl.find_opt locked (w.wname, "baseline") with
           | Some c -> c
           | None -> failwith (w.wname ^ "/baseline missing from " ^ baseline)
         in
         List.map (fun spec -> { w; spec; locked = c }) S.registry)
       W.all)

let run ~baseline ~seed ~seconds ~trace : outcome =
  let setup_s, items = setup_median 5 (fun () -> setup ~baseline) in
  let n = Array.length items in
  let order = shuffle (Random.State.make [| seed |]) (Array.init n Fun.id) in
  let g = gates () in
  let op_s = samples () in
  let untraced_rounds = samples () and traced_rounds = samples () in
  let bounds = Array.make n 0 and alms = Array.make n 0 in
  let round_chisel = ref [] in
  let rss =
    rounds ~seconds ~min_rounds:(if trace then 4 else 3) (fun rd ->
      tracing := trace && rd mod 2 = 1;
      let chisel = ref 0 in
      Array.iter
        (fun i ->
          let it = items.(i) in
          attempt g;
          let passes = it.spec.sp_build it.spec.sp_defaults in
          read_host ();
          let t0 = now () in
          let diags, tm, m, text =
            Common.op i (fun () ->
                let b =
                  pipe "pipeline.build" (fun ctl ->
                      P.build ~ctl ~passes (P.of_workload it.w))
                in
                let c = b.P.p_circuit in
                let diags = span "analysis.check" (fun () -> Muir_analysis.Check.circuit c) in
                let tm = span "analysis.timing" (fun () -> Muir_analysis.Timing.analyze c) in
                let m = pipe "pipeline.model" (fun ctl -> P.model ~ctl b) in
                let text = span "rtl.chisel" (fun () -> Muir_rtl.Chisel.emit c) in
                (diags, tm, m, text))
          in
          let dt = now () -. t0 in
          add op_s i dt;
          add (if !tracing then traced_rounds else untraced_rounds) i dt;
          (match Muir_analysis.Diag.errors diags with
          | [] -> ()
          | e ->
            fail g "%s/%s: %d error diagnostic(s)" it.w.wname it.spec.sp_name
              (List.length e));
          let bound = tm.Muir_analysis.Timing.bound in
          if bound > it.locked then
            fail g "%s/%s: timing bound %d > locked baseline cycles %d"
              it.w.wname it.spec.sp_name bound it.locked;
          bounds.(i) <- bound;
          alms.(i) <- m.P.m_fpga.fr_alms;
          chisel := !chisel + String.length text)
        order;
      round_chisel := float_of_int !chisel :: !round_chisel)
  in
  tracing := false;
  (* A bound of 0 is vacuous (dynamic task trees): count it as 1 cycle
     so the geomean stays defined. *)
  let e2e =
    end_to_end g ~setup_s ~items_per_s:(items_per_s op_s) ~lat:op_s
      ~rss
      ~cycles:(Array.to_list (Array.map (fun b -> float_of_int (max b 1)) bounds))
      ~alms:(Array.to_list (Array.map float_of_int alms))
  in
  let chisel_kb = same_every_round g "rtl.chisel_kb" !round_chisel /. 1024.0 in
  let layer =
    if not trace then []
    else
      [ ("compile_ms", self_ms "compile", "ms");
        ("build_ms", self_ms "build", "ms");
        ("optimize_ms", self_ms "optimize", "ms");
        ("lower_ms", self_ms "lower", "ms");
        ("model_ms", self_ms "model", "ms");
        ("analysis.check_ms", self_ms "analysis.check", "ms");
        ("analysis.timing_ms", self_ms "analysis.timing", "ms");
        ("rtl.chisel_ms", self_ms "rtl.chisel", "ms");
        trace_overhead ~traced:traced_rounds ~untraced:untraced_rounds ]
  in
  { attempted = g.g_attempted; failed = g.g_failed; metrics = e2e @ layer;
    exact = [ ("rtl.chisel_kb", chisel_kb) ] }
