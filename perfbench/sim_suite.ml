(* sim-suite: every bundled workload x {baseline, best} through
   build -> model -> simulate on one domain, the `muirc simulate` path.
   The seed sets only the round-robin order, so every seed runs the same
   48 items and the exact counts repeat across seeds too.

   Gates: simulated outputs equal the Interp golden, and cycles equal
   the ones locked in bench/baseline.json. *)

open Common
module P = Muir_pipeline.Pipeline
module W = Muir_workloads.Workloads
module Opt = Muir_opt

(** The per-category "all optimizations" stack that bench/baseline.json
    locks as "best" (§6.5 of the paper). *)
let best_stack (w : W.t) : Opt.Pass.t list =
  if w.tensor then
    Opt.Stacks.tensor_stack ()
    @ [ Opt.Structural.tiling_pass ~scope:`All_loops ~tiles:4 ();
        Opt.Structural.scratchpad_banking_pass ~banks:4 () ]
  else
    match w.category with
    | W.Cilk -> Opt.Stacks.cilk_stack ~tiles:4 ~banks:2 ()
    | _ -> Opt.Stacks.best_loop_stack ()

type item = {
  w : W.t;
  stack : string;
  passes : Opt.Pass.t list;
  locked : int;  (** cycles in bench/baseline.json *)
  golden : (string * Muir_ir.Types.value array) list;
}

(** Locked cycles by (workload, stack). *)
let locked_cycles (baseline : string) : (string * string, int) Hashtbl.t =
  let suite = Muir_trace.Report.load baseline in
  let t = Hashtbl.create 64 in
  List.iter
    (fun (r : Muir_trace.Report.run) ->
      Hashtbl.replace t (r.r_workload, r.r_stack) r.r_cycles)
    suite.su_runs;
  t

let golden (w : W.t) =
  let p = W.program w in
  let _, mem, _ = Muir_ir.Interp.run p in
  List.map (fun g -> (g, Muir_ir.Memory.dump_global mem p g)) w.outputs

let setup ~(baseline : string) : item array =
  let locked = locked_cycles baseline in
  Array.of_list
    (List.concat_map
       (fun (w : W.t) ->
         let gold = golden w in
         List.map
           (fun (stack, passes) ->
             match Hashtbl.find_opt locked (w.wname, stack) with
             | Some c -> { w; stack; passes; locked = c; golden = gold }
             | None ->
               failwith
                 (Printf.sprintf "%s/%s missing from %s" w.wname stack baseline))
           [ ("baseline", []); ("best", best_stack w) ])
       W.all)

let outputs_match (it : item) (b : P.built) (r : Muir_sim.Sim.result) =
  List.for_all
    (fun (g, gold) ->
      let got = Muir_ir.Memory.dump_global r.memory b.P.p_program g in
      Array.length got = Array.length gold
      && Array.for_all2 (fun x y -> Muir_ir.Types.value_close x y) gold got)
    it.golden

(* [inject] (the self-check only) busy-waits that fraction of the
   simulate call's own time on top of it, inside the timed op. *)
let busy_wait secs =
  let t0 = now () in
  while now () -. t0 < secs do () done

let run ~baseline ~seed ~seconds ~trace ~inject : outcome =
  let setup_s, items = setup_median 5 (fun () -> setup ~baseline) in
  let n = Array.length items in
  let order = shuffle (Random.State.make [| seed |]) (Array.init n Fun.id) in
  let g = gates () in
  let op_s = samples () and sim_s = samples () in
  let untraced_rounds = samples () and traced_rounds = samples () in
  let cycles = Array.make n 0 and alms = Array.make n 0 in
  let round_cycles = ref [] and round_majors = ref [] in
  let woken = ref 0.0 and minor = ref 0.0 and kernel_cycles = ref 0.0 in
  let rss =
    rounds ~seconds ~min_rounds:(if trace then 4 else 3) (fun rd ->
      tracing := trace && rd mod 2 = 1;
      let majors = ref 0 and total = ref 0 in
      Array.iter
        (fun i ->
          let it = items.(i) in
          attempt g;
          let src = P.of_workload it.w in
          read_host ();
          let t0 = now () in
          let b, m, r =
            Common.op i (fun () ->
                let b = pipe "pipeline.build" (fun ctl -> P.build ~ctl ~passes:it.passes src) in
                let m = pipe "pipeline.model" (fun ctl -> P.model ~ctl b) in
                let r =
                  pipe "pipeline.simulate" (fun ctl ->
                      let r = P.simulate ~ctl b in
                      if inject > 0.0 then busy_wait (inject *. P.seconds ctl P.Simulate);
                      r)
                in
                (b, m, r))
          in
          let dt = now () -. t0 in
          add op_s i dt;
          add (if !tracing then traced_rounds else untraced_rounds) i dt;
          let st = r.Muir_sim.Sim.stats in
          add sim_s i st.wall_seconds;
          let c = st.total_cycles in
          if c <> it.locked then
            fail g "%s/%s: %d cycles, bench/baseline.json locks %d" it.w.wname
              it.stack c it.locked;
          if not (outputs_match it b r) then
            fail g "%s/%s: outputs differ from the Interp golden" it.w.wname it.stack;
          cycles.(i) <- c;
          alms.(i) <- m.P.m_fpga.fr_alms;
          total := !total + c;
          majors := !majors + st.gc_major_collections;
          if rd = 0 then begin
            kernel_cycles := !kernel_cycles +. float_of_int st.cycles;
            woken := !woken +. (st.woken_per_cycle *. float_of_int st.cycles);
            minor := !minor +. (st.gc_minor_words_per_cycle *. float_of_int st.cycles)
          end)
        order;
      round_cycles := float_of_int !total :: !round_cycles;
      round_majors := float_of_int !majors :: !round_majors)
  in
  tracing := false;
  (* The simulator's own event tracer, for the telemetry budget: a pass
     of its own after the rounds, so the traced rounds differ from the
     untraced ones only by their spans.  Each item is simulated without
     and then with a tracer, on fresh builds, back to back. *)
  let plain_sim_s = ref 0.0 and traced_sim_s = ref 0.0 in
  if trace then
    Array.iter
      (fun i ->
        let it = items.(i) in
        let sim tracer =
          let b = P.build ~passes:it.passes (P.of_workload it.w) in
          (P.simulate ?tracer b).Muir_sim.Sim.stats.wall_seconds
        in
        plain_sim_s := !plain_sim_s +. sim None;
        traced_sim_s := !traced_sim_s +. sim (Some (Muir_trace.Trace.create ())))
      order;
  let sim_cycles = same_every_round g "sim.mcycles" !round_cycles /. 1e6 in
  let e2e =
    end_to_end g ~setup_s ~items_per_s:(items_per_s op_s) ~lat:op_s
      ~rss
      ~cycles:(Array.to_list (Array.map float_of_int cycles))
      ~alms:(Array.to_list (Array.map float_of_int alms))
  in
  let layer =
    if not trace then []
    else
      let sim_total = sum (medians sim_s) in
      [ ("simulate_ms", self_ms "simulate", "ms");
        ("compile_ms", self_ms "compile", "ms");
        ("build_ms", self_ms "build", "ms");
        ("optimize_ms", self_ms "optimize", "ms");
        ("lower_ms", self_ms "lower", "ms");
        ("model_ms", self_ms "model", "ms");
        ("sim.mcycles", sim_cycles, "Mcycles");
        ("sim.mcycles_per_s", sim_cycles /. sim_total, "Mcycles/s");
        ("sim.woken_per_cycle", !woken /. !kernel_cycles, "nodes");
        ("sim.minor_words_per_cycle", !minor /. !kernel_cycles, "words");
        ("sim.major_gcs", median (Array.of_list !round_majors), "count");
        ("sim.tracer_slowdown", !traced_sim_s /. !plain_sim_s, "ratio");
        trace_overhead ~traced:traced_rounds ~untraced:untraced_rounds ]
  in
  { attempted = g.g_attempted; failed = g.g_failed; metrics = e2e @ layer;
    exact = [ ("sim.mcycles", sim_cycles) ] }
