(* Experiment harness: regenerates every table and figure of the μIR
   paper's evaluation (see DESIGN.md's experiment index).

     dune exec bench/main.exe           -- run everything
     dune exec bench/main.exe -- table2 fig9 ...   -- selected experiments
     dune exec bench/main.exe -- bechamel          -- wall-clock microbenches

   Absolute numbers come from this repository's simulator and synthesis
   models, not the authors' testbed; EXPERIMENTS.md records the
   paper-vs-measured comparison of shapes. *)

open Muir_ir
module W = Muir_workloads.Workloads
module Opt = Muir_opt
module G = Muir_core.Graph

let line = String.make 78 '-'

let header title = Fmt.pr "@.%s@.%s@.%s@." line title line

(* ------------------------------------------------------------------ *)
(* Execution helpers                                                    *)

type run = {
  r_cycles : int;
  r_mhz : float;
  r_us : float;  (** wall time at the modelled clock *)
}

let check_outputs (w : W.t) (p : Program.t) (r : Muir_sim.Sim.result) =
  let _, gold, _ = Interp.run p in
  List.iter
    (fun g ->
      let a = Memory.dump_global gold p g in
      let b = Memory.dump_global r.memory p g in
      Array.iteri
        (fun i x ->
          if not (Types.value_close x b.(i)) then
            failwith
              (Fmt.str "%s: output %s[%d] mismatch (golden %s, sim %s)"
                 w.wname g i (Types.value_to_string x)
                 (Types.value_to_string b.(i))))
        a)
    w.outputs

(** Build, optimize, simulate and functionally check one workload. *)
let run_workload ?(passes = []) ?(unroll = false) (w : W.t) : run =
  let p = W.program w in
  if unroll then ignore (Unroll.unroll ~max_trip:16 p);
  let c = Muir_core.Build.circuit ~name:w.wname p in
  let _ = Opt.Pass.run_all passes c in
  let r = Muir_sim.Sim.run c in
  check_outputs w p r;
  let design = Muir_rtl.Lower.design c in
  let f = Muir_model.Model.fpga design in
  let cycles = r.Muir_sim.Sim.stats.total_cycles in
  { r_cycles = cycles;
    r_mhz = f.fr_mhz;
    r_us = float_of_int cycles /. f.fr_mhz }

(** The per-category "all optimizations" stack (§6.5). *)
let best_stack (w : W.t) : Opt.Pass.t list =
  if w.tensor then
    Opt.Stacks.tensor_stack ()
    @ [ Opt.Structural.tiling_pass ~scope:`All_loops ~tiles:4 ();
        Opt.Structural.scratchpad_banking_pass ~banks:4 () ]
  else
    match w.category with
    | W.Cilk -> Opt.Stacks.cilk_stack ~tiles:4 ~banks:2 ()
    | _ -> Opt.Stacks.best_loop_stack ()

(* ------------------------------------------------------------------ *)
(* Table 2: baseline synthesis quality                                  *)

let table2 () =
  header "Table 2: synthesizing baseline μIR accelerators (no μopt passes)";
  Fmt.pr "%-10s | %5s %6s %7s %7s %4s %5s | %7s %6s %5s@." "bench" "MHz"
    "mW" "ALMs" "Regs" "DSP" "BRAM" "kum2" "mW" "GHz";
  Fmt.pr "%s@." line;
  List.iter
    (fun (w : W.t) ->
      let p = W.program w in
      let c = Muir_core.Build.circuit ~name:w.wname p in
      let d = Muir_rtl.Lower.design c in
      let f = Muir_model.Model.fpga d in
      let a = Muir_model.Model.asic d in
      Fmt.pr "%-10s | %5.0f %6.0f %7d %7d %4d %5d | %7.1f %6.1f %5.2f%s@."
        w.wname f.fr_mhz f.fr_mw f.fr_alms f.fr_regs f.fr_dsps f.fr_brams
        a.ar_area a.ar_mw a.ar_ghz
        (if w.tensor then "  [T]" else if w.fp then "  [F]" else ""))
    W.all

(* ------------------------------------------------------------------ *)
(* Figure 9: baseline μIR vs HLS                                        *)

let fig9_benches =
  [ "gemm"; "covar"; "fft"; "spmv"; "2mm"; "3mm"; "conv"; "dense8";
    "dense16"; "softm8"; "softm16" ]

let fig9 () =
  header
    "Figure 9: baseline μIR vs HLS, normalized execution time (HLS = 1; < \
     1 means μIR is faster)";
  Fmt.pr "%-10s %10s %10s %8s %8s %10s@." "bench" "uIR cyc" "HLS cyc"
    "uIR MHz" "HLS MHz" "norm exec";
  List.iter
    (fun name ->
      let w = W.find name in
      let r = run_workload w in
      let hls = Muir_hls.Hls.run (W.program w) in
      let hls_mhz = r.r_mhz /. hls.clock_ratio in
      let hls_us = hls.hls_cycles /. hls_mhz in
      Fmt.pr "%-10s %10d %10.0f %8.0f %8.0f %10.2f@." name r.r_cycles
        hls.hls_cycles r.r_mhz hls_mhz (r.r_us /. hls_us))
    fig9_benches

(* ------------------------------------------------------------------ *)
(* Figure 11: op fusion                                                 *)

let fig11_benches = [ "fft"; "spmv"; "covar"; "saxpy" ]

let fig11 () =
  header
    "Figure 11: execution-time improvement from auto-pipelining + op \
     fusion (baseline = 1)";
  List.map
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let fused = run_workload ~passes:[ Opt.Fusion.pass ] w in
      let norm = fused.r_us /. base.r_us in
      Fmt.pr "%-10s baseline=%-8d fused=%-8d normalized=%.2f (%.2fx)@." name
        base.r_cycles fused.r_cycles norm (1.0 /. norm);
      (name, 1.0 /. norm))
    fig11_benches

(* ------------------------------------------------------------------ *)
(* Figure 12: concurrency tiling                                        *)

let fig12_benches = [ "stencil"; "saxpy"; "img-scale"; "fib"; "msort" ]
let fig12_tiles = [ 1; 2; 4; 8 ]

let fig12 () =
  header
    "Figure 12: execution time when varying execution tiles per task (1T \
     = 1)";
  Fmt.pr "%-10s %8s %8s %8s %8s   best speedup@." "bench" "1T" "2T" "4T"
    "8T";
  List.map
    (fun name ->
      let w = W.find name in
      let runs =
        List.map
          (fun tiles ->
            (run_workload
               ~passes:
                 [ Opt.Structural.queuing_pass ();
                   Opt.Structural.tiling_pass ~tiles () ]
               w)
              .r_cycles)
          fig12_tiles
      in
      let base = float_of_int (List.hd runs) in
      Fmt.pr "%-10s %8d %8d %8d %8d   %.2fx@." name (List.nth runs 0)
        (List.nth runs 1) (List.nth runs 2) (List.nth runs 3)
        (base /. float_of_int (List.nth runs 3));
      (name, base /. float_of_int (List.nth runs 3)))
    fig12_benches

(* ------------------------------------------------------------------ *)
(* Figure 15: tensor higher-order ops                                   *)

let fig15_benches = [ "relu[T]"; "2mm[T]"; "conv[T]" ]

let fig15 () =
  header
    "Figure 15: performance improvement from dedicated tensor units \
     (baseline = 1)";
  List.map
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let opt = run_workload ~passes:(Opt.Stacks.tensor_stack ()) w in
      let speedup = base.r_us /. opt.r_us in
      Fmt.pr "%-10s baseline=%-8d tensor=%-8d speedup=%.2fx@." name
        base.r_cycles opt.r_cycles speedup;
      (name, speedup))
    fig15_benches

(* ------------------------------------------------------------------ *)
(* Figure 16: cache banking                                             *)

let fig16_benches = [ "gemm"; "fft"; "2mm"; "3mm"; "saxpy"; "conv" ]

let fig16 () =
  header "Figure 16: effect of cache banking (1-4 banks, 1B = 1)";
  Fmt.pr "%-10s %8s %8s %8s   best speedup@." "bench" "1B" "2B" "4B";
  List.map
    (fun name ->
      let w = W.find name in
      let runs =
        List.map
          (fun banks ->
            let passes =
              if banks = 1 then []
              else [ Opt.Structural.cache_banking_pass ~banks () ]
            in
            (run_workload ~passes w).r_cycles)
          [ 1; 2; 4 ]
      in
      let base = float_of_int (List.hd runs) in
      let best = base /. float_of_int (List.nth runs 2) in
      Fmt.pr "%-10s %8d %8d %8d   %.2fx@." name (List.nth runs 0)
        (List.nth runs 1) (List.nth runs 2) best;
      (name, best))
    fig16_benches

(* ------------------------------------------------------------------ *)
(* §6.4 memory localization (the Table 3 row next to cache banking)     *)

let loc_benches = [ "spmv"; "conv"; "saxpy"; "covar" ]

let localization () =
  header
    "§6.4 memory localization: per-array scratchpads replacing the \
     shared cache (baseline = 1)";
  List.map
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let opt =
        run_workload ~passes:[ Opt.Structural.localization_pass () ] w
      in
      let speedup = base.r_us /. opt.r_us in
      Fmt.pr "%-10s baseline=%-8d localized=%-8d speedup=%.2fx@." name
        base.r_cycles opt.r_cycles speedup;
      (name, speedup))
    loc_benches

(* ------------------------------------------------------------------ *)
(* Figure 17: stacking multiple optimizations                           *)

let fig17_cilk = [ "saxpy"; "stencil"; "img-scale" ]

let fig17_loop =
  [ "gemm"; "covar"; "fft"; "spmv"; "2mm"; "3mm"; "conv"; "dense8";
    "dense16"; "softm8"; "softm16" ]

let fig17 () =
  header
    "Figure 17: stacked μopt passes, normalized execution (baseline = 1)";
  let do_group names stack =
    List.map
      (fun name ->
        let w = W.find name in
        let base = run_workload w in
        let opt = run_workload ~passes:(stack w) w in
        let norm = opt.r_us /. base.r_us in
        Fmt.pr "%-10s baseline=%-8d stacked=%-8d normalized=%.2f (%.2fx)@."
          name base.r_cycles opt.r_cycles norm (1.0 /. norm);
        (name, 1.0 /. norm))
      names
  in
  Fmt.pr "Cilk group: queuing + tiling + localization + banking + fusion@.";
  let cilk =
    do_group fig17_cilk (fun _ -> Opt.Stacks.cilk_stack ~tiles:4 ~banks:2 ())
  in
  Fmt.pr
    "@.Loop-nest group: queuing + cache banking + localization + fusion@.";
  let loops = do_group fig17_loop (fun _ -> Opt.Stacks.loop_stack ()) in
  cilk @ loops

(* ------------------------------------------------------------------ *)
(* Figure 18: optimized μIR vs ARM A9                                   *)

let fig18_benches =
  [ "gemm"; "covar"; "fft"; "fft-buf"; "spmv"; "2mm"; "3mm"; "img-scale";
    "relu[T]"; "2mm[T]"; "conv[T]" ]

let fig18 () =
  header
    "Figure 18: fully optimized μIR accelerators vs an ARM A9 @ 1 GHz (> \
     1: μIR faster)";
  Fmt.pr "%-10s %12s %10s %10s %10s@." "bench" "acc cycles" "acc us"
    "cpu us" "speedup";
  List.map
    (fun name ->
      let w = W.find name in
      (* "all optimizations": compiler-level unrolling (the paper
         enables all compiler opts) + the per-category μopt stack *)
      let r = run_workload ~unroll:true ~passes:(best_stack w) w in
      let cpu = Muir_cpu.Arm.run (W.program w) in
      let cpu_us = Muir_cpu.Arm.nanoseconds cpu /. 1000.0 in
      let speedup = cpu_us /. r.r_us in
      Fmt.pr "%-10s %12d %10.2f %10.2f %10.2f@." name r.r_cycles r.r_us
        cpu_us speedup;
      (name, speedup))
    fig18_benches

(* ------------------------------------------------------------------ *)
(* Table 3 and the Figure 1 headline plot                               *)

let range l =
  let mn = List.fold_left (fun a (_, x) -> Float.min a x) infinity l in
  let mx = List.fold_left (fun a (_, x) -> Float.max a x) 0.0 l in
  (mn, mx)

let table3_data () =
  let f11 = fig11 () and f12 = fig12 () and f15 = fig15 ()
  and f16 = fig16 () and floc = localization () in
  header "Table 3: summary of μopt passes";
  Fmt.pr "%-16s %-12s %-38s %s@." "Opt" "Type" "Benchmarks" "Perf";
  let row name ty benches (mn, mx) =
    Fmt.pr "%-16s %-12s %-38s %.1f-%.1fx@." name ty
      (String.concat "," benches) mn mx
  in
  row "Op fusion" "Timing" fig11_benches (range f11);
  row "Task tiling" "Spatial" fig12_benches (range f12);
  row "Tensor ops" "Higher Ops" fig15_benches (range f15);
  row "Mem. localize" "Timing&Sp." loc_benches (range floc);
  row "Cache banking" "Timing&Sp." fig16_benches (range f16);
  (f11, f12, f15, f16, floc)

let table3 () = ignore (table3_data ())

let fig1 () =
  let f11, f12, f15, f16, floc = table3_data () in
  header "Figure 1 (headline plot): best improvement per pass class";
  let best l = snd (range l) in
  Fmt.pr "Op Fusion     %.1fx@." (best f11);
  Fmt.pr "Task Tiling   %.1fx@." (best f12);
  Fmt.pr "Tensor Intrin %.1fx@." (best f15);
  Fmt.pr "Locality      %.1fx@." (Float.max (best f16) (best floc))

(* ------------------------------------------------------------------ *)
(* Table 4: conciseness of μIR vs the circuit-level IR                  *)

let table4_benches = [ "saxpy"; "stencil"; "img-scale" ]

let table4 () =
  header
    "Table 4: conciseness of μIR vs the lowered circuit IR (elements \
     touched per transformation)";
  Fmt.pr "%-10s | %-26s | %-26s | %-26s | %s@." "bench"
    "tile 1->2 (uIR / rtl)" "add 1 SRAM (uIR / rtl)"
    "op fusion (uIR / rtl)" "rtl/uIR";
  List.iter
    (fun name ->
      let w = W.find name in
      let p = W.program w in
      let fresh () = Muir_core.Build.circuit ~name p in
      let delta (pass : Opt.Pass.t) =
        let c = fresh () in
        let d0 = Muir_rtl.Lower.design c in
        let rep = pass.prun c in
        let d1 = Muir_rtl.Lower.design c in
        let dn, de = Muir_rtl.Rtl.diff d0 d1 in
        (rep.delta_nodes, rep.delta_edges, dn, de)
      in
      let t = delta (Opt.Structural.tiling_pass ~tiles:2 ()) in
      let s = delta (Opt.Structural.localization_pass ()) in
      let f = delta Opt.Fusion.pass in
      let c = fresh () in
      let un, ue = G.graph_size c in
      let rn, re = Muir_rtl.Rtl.size (Muir_rtl.Lower.design c) in
      let pp (un', ue', rn', re') =
        Fmt.str "dN%4d dE%4d / %4d %4d" un' ue' rn' re'
      in
      Fmt.pr "%-10s | %s | %s | %s | %.1fx@." name (pp t) (pp s) (pp f)
        (float_of_int (rn + re) /. float_of_int (un + ue)))
    table4_benches

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's called-out choices                          *)

let unroll_ablation () =
  header
    "Ablation: behaviour-level loop unrolling feeding hardware ILP \
     (baseline = 1)";
  List.iter
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let unrolled = run_workload ~unroll:true w in
      let both =
        run_workload ~unroll:true ~passes:(best_stack w) w
      in
      Fmt.pr
        "%-10s baseline=%-8d unrolled=%-8d unrolled+stack=%-8d (%.2fx, \
         %.2fx)@."
        name base.r_cycles unrolled.r_cycles both.r_cycles
        (base.r_us /. unrolled.r_us)
        (base.r_us /. both.r_us))
    [ "gemm"; "dense8"; "conv1d"; "conv" ]

let writeback_ablation () =
  header
    "Ablation: scratchpad write-back buffers (Pass-3 alternative, \
     baseline = localized)";
  List.iter
    (fun name ->
      let w = W.find name in
      let plain =
        run_workload ~passes:[ Opt.Structural.localization_pass () ] w
      in
      let buffered =
        run_workload
          ~passes:
            [ Opt.Structural.localization_pass ();
              Opt.Structural.writeback_pass () ]
          w
      in
      Fmt.pr "%-10s localized=%-8d +wb-buffer=%-8d (%.2fx)@." name
        plain.r_cycles buffered.r_cycles
        (plain.r_us /. buffered.r_us))
    [ "saxpy"; "stencil"; "conv1d" ]

let ablation () =
  unroll_ablation ();
  writeback_ablation ();
  header "Ablation: channel capacity (saxpy), junction width (gemm)";
  let w = W.find "saxpy" in
  Fmt.pr "channel capacity (baseline edges):@.";
  List.iter
    (fun cap ->
      let p = W.program w in
      let c = Muir_core.Build.circuit p in
      G.iter_tasks
        (fun t ->
          List.iter
            (fun (e : G.edge) ->
              if e.initial = [] then e.capacity <- max e.capacity cap)
            t.edges)
        c;
      let r = Muir_sim.Sim.run c in
      Fmt.pr "  cap>=%d: %d cycles@." cap
        r.Muir_sim.Sim.stats.total_cycles)
    [ 2; 4; 8 ];
  Fmt.pr "junction width (requests granted/cycle):@.";
  let wg = W.find "gemm" in
  List.iter
    (fun width ->
      let p = W.program wg in
      let c = Muir_core.Build.circuit p in
      G.iter_tasks (fun t -> G.set_junction_width c t.tid width) c;
      let r = Muir_sim.Sim.run c in
      Fmt.pr "  width=%d: %d cycles@." width
        r.Muir_sim.Sim.stats.total_cycles)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Simulation-kernel observability: how fast the event-driven kernel    *)
(* runs and how sparse its wake lists are                               *)

let kernel ?json () =
  header
    "Simulation kernel: wall-clock throughput, wake-list sparsity and GC \
     pressure per workload";
  Fmt.pr "%-10s %10s %8s %12s %10s %10s %8s %9s %6s@." "bench" "cycles"
    "wall-s" "cycles/sec" "woken/cyc" "nodes/cyc" "sparsity" "minW/cyc"
    "majGC";
  let rows =
    List.map
      (fun (w : W.t) ->
        let p = W.program w in
        let c = Muir_core.Build.circuit ~name:w.wname p in
        let r = Muir_sim.Sim.run c in
        let s = r.Muir_sim.Sim.stats in
        let sparsity =
          if s.live_nodes_per_cycle > 0.0 then
            s.woken_per_cycle /. s.live_nodes_per_cycle
          else 0.0
        in
        Fmt.pr "%-10s %10d %8.3f %12.0f %10.1f %10.1f %7.1f%% %9.4f %6d@."
          w.wname s.cycles s.wall_seconds s.cycles_per_sec s.woken_per_cycle
          s.live_nodes_per_cycle (100.0 *. sparsity)
          s.gc_minor_words_per_cycle s.gc_major_collections;
        (w.wname, s))
      W.all
  in
  (* Zero-allocation guard: the steady-state fire path must not touch
     the minor heap.  The sampled rate excludes construction warm-up
     (second half of the run); 0.05 words/cycle of slack covers the
     periodic sampling itself. *)
  List.iter
    (fun name ->
      let s = List.assoc name rows in
      if s.Muir_sim.Sim.gc_minor_words_per_cycle >= 0.05 then begin
        Fmt.epr
          "zero-allocation guard failed: %s steady-state allocates %.4f \
           minor words/cycle (limit 0.05)@."
          name s.Muir_sim.Sim.gc_minor_words_per_cycle;
        exit 1
      end
      else
        Fmt.pr
          "zero-allocation guard: %s steady-state %.4f minor words/cycle \
           (< 0.05)@."
          name s.Muir_sim.Sim.gc_minor_words_per_cycle)
    [ "gemm"; "fib" ];
  (match json with
  | None -> ()
  | Some path ->
    let module J = Muir_trace.Json in
    let j =
      J.Obj
        [ ( "workloads",
            J.Arr
              (List.map
                 (fun (name, (s : Muir_sim.Sim.stats)) ->
                   J.Obj
                     [ ("name", J.Str name);
                       ("cycles", J.Int s.cycles);
                       ("wall_seconds", J.Float s.wall_seconds);
                       ("cycles_per_sec", J.Float s.cycles_per_sec);
                       ("woken_per_cycle", J.Float s.woken_per_cycle);
                       ( "live_nodes_per_cycle",
                         J.Float s.live_nodes_per_cycle );
                       ( "gc_minor_words_per_cycle",
                         J.Float s.gc_minor_words_per_cycle );
                       ( "gc_major_collections",
                         J.Int s.gc_major_collections ) ])
                 rows) ) ]
    in
    let oc = open_out path in
    output_string oc (J.to_string j);
    output_char oc '\n';
    close_out oc;
    Fmt.pr "wrote kernel metrics for %d workloads to %s@."
      (List.length rows) path);
  (* Tracing-disabled overhead guard: with no tracer attached the
     instrumented kernel must be indistinguishable from noise.  Two
     interleaved batches of untraced GEMM runs must land within 3% of
     each other — if instrumentation cost real time, it would still
     show in both batches equally, so what this bounds is the machine
     noise floor against which any overhead claim is made; the traced
     run is then reported against that floor. *)
  let timed ?tracer () =
    let w = W.find "gemm" in
    let p = W.program w in
    let c = Muir_core.Build.circuit ~name:w.wname p in
    let r = Muir_sim.Sim.run ?tracer c in
    r.Muir_sim.Sim.stats.wall_seconds
  in
  let median l =
    List.nth (List.sort compare l) (List.length l / 2)
  in
  let batches () =
    let a = ref [] and b = ref [] in
    for _ = 1 to 5 do
      a := timed () :: !a;
      b := timed () :: !b
    done;
    (median !a, median !b)
  in
  let rec guard attempt =
    let ta, tb = batches () in
    let delta = Float.abs (ta -. tb) /. Float.max ta tb in
    Fmt.pr
      "tracing-disabled overhead guard: batch A %.4fs, batch B %.4fs \
       (%.1f%% apart, limit 3%%)@."
      ta tb (100.0 *. delta);
    if delta > 0.03 then
      if attempt < 3 then begin
        Fmt.pr "  ...above the noise limit, retrying (%d/3)@." attempt;
        guard (attempt + 1)
      end
      else begin
        Fmt.epr
          "tracing-disabled kernel overhead guard failed: batches %.1f%% \
           apart after 3 attempts@."
          (100.0 *. delta);
        exit 1
      end
  in
  guard 1;
  let t_off = median (List.init 5 (fun _ -> timed ())) in
  let t_on =
    median
      (List.init 5 (fun _ -> timed ~tracer:(Muir_trace.Trace.create ()) ()))
  in
  Fmt.pr "tracing enabled: %.4fs vs %.4fs disabled (%+.1f%%, informational)@."
    t_on t_off
    (100.0 *. (t_on -. t_off) /. t_off)

(* ------------------------------------------------------------------ *)
(* Profiler: the bottleneck -> μopt pass loop (§7's methodology)        *)

let profile () =
  header
    "Profiler: stall attribution, and how the blamed structure responds \
     to the bundled stack that widens it";
  let traced name passes =
    let w = W.find name in
    let p = W.program w in
    let c = Muir_core.Build.circuit ~name:w.wname p in
    let _ = Opt.Pass.run_all passes c in
    let tracer = Muir_trace.Trace.create () in
    let r = Muir_sim.Sim.run ~tracer c in
    Muir_trace.Profile.of_run c ~tracer r.Muir_sim.Sim.counters
  in
  List.iter
    (fun (name, stack_name, stack) ->
      let p0 = traced name [] in
      let p1 = traced name (stack ()) in
      Fmt.pr "@.== %s (baseline %d cycles; %s %d cycles)@." name p0.Muir_trace.Profile.p_cycles
        stack_name p1.Muir_trace.Profile.p_cycles;
      Muir_trace.Profile.report ~top:5 Fmt.stdout p0;
      List.iter
        (fun (s : Muir_trace.Profile.struct_row) ->
          if s.s_stalls > 0 then
            Fmt.pr
              "stall share of %-16s baseline %5.2f%% -> %s %5.2f%%@."
              s.s_name
              (100.0 *. Muir_trace.Profile.struct_share p0 s.s_name)
              stack_name
              (100.0 *. Muir_trace.Profile.struct_share p1 s.s_name))
        p0.Muir_trace.Profile.p_structs)
    [ ("gemm", "loop-stack", fun () -> Opt.Stacks.loop_stack ());
      ("fib", "cilk-stack", fun () -> Opt.Stacks.cilk_stack ());
      ("2mm[T]", "tensor-stack", fun () -> Opt.Stacks.tensor_stack ()) ]

(* ------------------------------------------------------------------ *)
(* Static timing bounds cross-validated against the simulator          *)

let timing () =
  header
    "Static timing analysis: max-cycle-ratio lower bounds vs measured \
     cycles, every workload under every registry stack";
  Fmt.pr "@.%-12s %-14s %10s %10s %10s@." "workload" "stack" "bound"
    "measured" "tightness";
  let rows = ref 0 and tight_sum = ref 0.0 in
  let tight_min = ref infinity and tight_max = ref 0.0 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (s : Opt.Stacks.spec) ->
          let p = W.program w in
          let c = Muir_core.Build.circuit ~name:w.wname p in
          let _ = Opt.Pass.run_all (s.sp_build s.sp_defaults) c in
          let bound = Muir_analysis.Timing.bound_cycles c in
          let r = Muir_sim.Sim.run c in
          let m = r.Muir_sim.Sim.stats.total_cycles in
          (* The soundness contract: the static bound may be loose but
             must never exceed what the simulator measures. *)
          if bound > m then begin
            Fmt.epr "%s under %s: UNSOUND static bound %d > measured %d@."
              w.wname s.sp_name bound m;
            exit 1
          end;
          let tight =
            if m = 0 then 1.0 else float_of_int bound /. float_of_int m
          in
          incr rows;
          tight_sum := !tight_sum +. tight;
          if tight < !tight_min then tight_min := tight;
          if tight > !tight_max then tight_max := tight;
          Fmt.pr "%-12s %-14s %10d %10d %9.2f@." w.wname s.sp_name bound m
            tight)
        Opt.Stacks.registry)
    W.all;
  Fmt.pr "@.%d pairs, all sound; tightness min %.2f mean %.2f max %.2f@."
    !rows !tight_min
    (!tight_sum /. float_of_int (max 1 !rows))
    !tight_max;
  (* Cross-validation of the critical-cycle attribution: on gemm under
     the queue-bound baseline stack, the structure the profiler blames
     for the dominant stall must appear as some task's static binding. *)
  let w = W.find "gemm" in
  let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
  let tracer = Muir_trace.Trace.create () in
  let r = Muir_sim.Sim.run ~tracer c in
  let prof = Muir_trace.Profile.of_run c ~tracer r.Muir_sim.Sim.counters in
  (match Muir_trace.Profile.dominant_struct prof with
  | None ->
    Fmt.epr "gemm baseline: profiler reports no stalls@.";
    exit 1
  | Some s ->
    let a = Muir_analysis.Timing.analyze c in
    let blamed =
      List.exists
        (fun (tt : Muir_analysis.Timing.task_timing) ->
          match tt.tt_ii with
          | Muir_analysis.Timing.Bounded { binding; _ } ->
            Muir_analysis.Timing.binding_sref binding = Some s.s_ref
          | _ -> false)
        a.tasks
    in
    if not blamed then begin
      Fmt.epr
        "gemm baseline: profiler blames %s but no static critical cycle \
         binds it@."
        s.s_name;
      exit 1
    end;
    Fmt.pr
      "@.gemm baseline: profiler's dominant stall (%s, %d cycles) matches \
       a static critical-cycle binding@."
      s.s_name s.s_stalls)

(* ------------------------------------------------------------------ *)
(* Design-space exploration: the explorer vs the hand-picked stacks     *)

let frontier_fingerprint (t : Muir_dse.Explore.t) : string =
  String.concat "\n" (List.map Muir_dse.Explore.eval_to_json t.x_frontier)
  ^ "\nbest:"
  ^ (match t.x_best with
    | Some b -> Muir_dse.Explore.eval_to_json b
    | None -> "none")

(* Resolve bundled examples whether we run from the repo root or from
   inside the build tree. *)
let read_example name =
  let candidates =
    [ Filename.concat "examples" name;
      Filename.concat "../examples" name;
      Filename.concat "../../examples" name;
      Filename.concat "../../../examples" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p ->
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  | None ->
    Fmt.epr "cannot locate examples/%s@." name;
    exit 1

let explore () =
  header
    "Design-space exploration: best-found configuration vs the best \
     predefined stack (grid search, shared memo cache)";
  let jobs = max 1 (min 4 (Domain.recommended_domain_count () - 1)) in
  List.iter
    (fun name ->
      let w = W.find name in
      let subject = Muir_dse.Explore.workload_subject w in
      let cache = Muir_dse.Cache.create () in
      (* Pass 1: just the predefined stacks, each at its own default
         parameters — the configurations a user could have hand-picked. *)
      let predef =
        Muir_dse.Explore.run ~jobs ~cache
          ~grid:(List.map Muir_dse.Config.predefined (Opt.Stacks.names ()))
          subject
      in
      let pbest =
        match predef.x_best with
        | Some b -> b
        | None -> failwith (name ^ ": no feasible predefined stack")
      in
      (* Pass 2: the full grid over the same cache — the predefined
         points come back as cache hits, never re-simulated. *)
      let full =
        Muir_dse.Explore.run ~jobs ~budget_evals:128 ~cache subject
      in
      Fmt.pr "@.== %s@." name;
      Muir_dse.Explore.pp_result Fmt.stdout full;
      let fbest = Option.get full.x_best in
      let cyc e = Option.get e.Muir_dse.Explore.e_cycles in
      Fmt.pr "best predefined   %-28s %8d cycles %7d ALMs@."
        (Muir_dse.Config.label pbest.e_cfg)
        (cyc pbest) pbest.e_alms;
      Fmt.pr "best found        %-28s %8d cycles %7d ALMs@."
        (Muir_dse.Config.label fbest.e_cfg)
        (cyc fbest) fbest.e_alms;
      (* Acceptance: some explored point must match or beat the best
         predefined stack on cycles at equal-or-lower modeled area. *)
      let dominated =
        List.exists
          (fun e ->
            cyc e <= cyc pbest && e.Muir_dse.Explore.e_alms <= pbest.e_alms)
          full.x_frontier
      in
      if not dominated then begin
        Fmt.epr
          "%s: explorer found nothing at least as good as the best \
           predefined stack@."
          name;
        exit 1
      end;
      (* Pass 3: re-exploration must be answered entirely from the
         memo cache — zero fresh simulations. *)
      let again =
        Muir_dse.Explore.run ~jobs ~budget_evals:128 ~cache subject
      in
      if again.x_fresh_sims <> 0 || again.x_pruned <> 0 then begin
        Fmt.epr "%s: re-exploration re-simulated %d configurations@." name
          (again.x_fresh_sims + again.x_pruned);
        exit 1
      end;
      Fmt.pr
        "re-exploration    %d cache hits, 0 fresh simulations@."
        again.x_cache_hits;
      (* The shared memo cache across all three passes: the hit/miss/
         entry counters the explorer reports in its JSON. *)
      Fmt.pr "shared cache      %a@." Muir_dse.Cache.pp_stats
        (Muir_dse.Cache.stats cache);
      (* Pass 4: the timing admission filter must be transparent — a
         pruned run from a cold cache reproduces the same frontier,
         byte for byte, never simulating more. *)
      let pruned =
        Muir_dse.Explore.run ~timing_prune:true ~jobs ~budget_evals:128
          ~cache:(Muir_dse.Cache.create ()) subject
      in
      if frontier_fingerprint pruned <> frontier_fingerprint full then begin
        Fmt.epr "%s: timing-pruned frontier diverged@." name;
        exit 1
      end;
      Fmt.pr
        "timing-pruned     identical frontier, %d of %d simulations \
         skipped@."
        pruned.x_timing_pruned pruned.x_fresh_evals)
    [ "gemm"; "fib"; "2mm" ];
  (* The queue-bound workloads above have bounds far below any measured
     run, so their filter never fires (and must not).  divring — the
     closed-form divide ring, where op-fusion re-times the recurrence —
     is the subject with honest pruning geometry: an un-fused config's
     static bound exceeds a fused config's measured cycles, so the
     banked un-fused configs are rejected without simulating. *)
  let subject =
    Muir_dse.Explore.source_subject ~name:"divring"
      (read_example "divring.mc")
  in
  let grid =
    [ Muir_dse.Config.v "baseline";
      Muir_dse.Config.v "cilk-stack";
      Muir_dse.Config.v ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~tiles:2 "cilk-stack";
      Muir_dse.Config.v ~banks:2 "cilk-stack";
      Muir_dse.Config.v ~banks:4 "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:2 "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:4 "cilk-stack";
      Muir_dse.Config.v ~banks:2 ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~banks:4 ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:2 ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:4 ~off:[ "op-fusion" ] "cilk-stack" ]
  in
  let jobs = max 1 (min 4 (Domain.recommended_domain_count () - 1)) in
  let plain =
    Muir_dse.Explore.run ~jobs ~cache:(Muir_dse.Cache.create ()) ~grid
      subject
  in
  let pruned =
    Muir_dse.Explore.run ~timing_prune:true ~jobs
      ~cache:(Muir_dse.Cache.create ()) ~grid subject
  in
  Fmt.pr "@.== divring (timing-pruned grid)@.";
  Muir_dse.Explore.pp_result Fmt.stdout pruned;
  if frontier_fingerprint pruned <> frontier_fingerprint plain then begin
    Fmt.epr "divring: timing-pruned frontier diverged@.";
    exit 1
  end;
  if
    pruned.x_timing_pruned < 1
    || pruned.x_fresh_sims >= plain.x_fresh_sims
  then begin
    Fmt.epr
      "divring: timing filter skipped nothing (%d -> %d sims, %d pruned)@."
      plain.x_fresh_sims pruned.x_fresh_sims pruned.x_timing_pruned;
    exit 1
  end;
  Fmt.pr
    "timing filter: %d -> %d simulations (%d rejected on static bound), \
     identical frontier@."
    plain.x_fresh_sims pruned.x_fresh_sims pruned.x_timing_pruned

(* ------------------------------------------------------------------ *)
(* Tensor-graph frontend: what graph-level op fusion pays               *)

let nn () =
  header
    "Tensor-graph frontend: whole-model lowering, fused vs unfused \
     (fusion folds relu into the producing matmul/conv/dense and \
     elides flatten)";
  Fmt.pr "%-8s %-9s %12s %12s %8s %9s@." "model" "stack" "unfused cyc"
    "fused cyc" "saved" "speedup";
  let improved = ref false in
  List.iter
    (fun name ->
      let wf = W.nn_workload name in
      let wu = W.nn_workload ~fused:false name in
      List.iter
        (fun (stack_name, passes_of) ->
          let u = run_workload ~passes:(passes_of wu) wu in
          let f = run_workload ~passes:(passes_of wf) wf in
          if f.r_cycles < u.r_cycles then improved := true;
          Fmt.pr "%-8s %-9s %12d %12d %8d %8.2fx@." name stack_name
            u.r_cycles f.r_cycles (u.r_cycles - f.r_cycles)
            (float_of_int u.r_cycles /. float_of_int f.r_cycles))
        [ ("baseline", fun (_ : W.t) -> []); ("best", best_stack) ])
    (List.map fst Muir_nn.Models.all);
  (* Acceptance: fusion must pay on at least one model/stack pair —
     both lowerings are functionally checked by run_workload above. *)
  if not !improved then begin
    Fmt.epr "nn: graph-level fusion reduced cycles on no model/stack pair@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The serve daemon: cold vs warm batch latency over the suite          *)

let serve_experiment ?json () =
  let module S = Muir_serve.Server in
  let module C = Muir_serve.Client in
  let module P = Muir_serve.Proto in
  let module J = Muir_trace.Json in
  let module R = Muir_trace.Report in
  header
    "Serve daemon: cold vs warm batch latency and requests/sec over the \
     workload suite (persistent content-addressed cache)";
  let socket = Filename.temp_file "muir-serve" ".sock" in
  Sys.remove socket;
  let cache_dir = Filename.temp_file "muir-rcache" ".d" in
  Sys.remove cache_dir;
  let jobs = max 1 (min 4 (Domain.recommended_domain_count () - 1)) in
  let start () =
    let t = S.create ~cache_dir ~jobs () in
    let d = Domain.spawn (fun () -> S.serve ~socket t) in
    let rec wait n =
      if Sys.file_exists socket then ()
      else if n = 0 then failwith "serve: daemon socket never appeared"
      else begin
        Unix.sleepf 0.05;
        wait (n - 1)
      end
    in
    wait 100;
    d
  in
  (* Every workload at baseline and under the "best" registry stack:
     the same suite shape as the regression baseline. *)
  let items =
    List.concat (List.mapi
      (fun i (w : W.t) ->
        List.mapi
          (fun j stack ->
            { P.it_id = (2 * i) + j; it_src = P.Workload w.wname;
              it_stack = stack; it_tiles = None; it_banks = None;
              it_off = []; it_deadline_ms = None })
          [ "baseline"; "best" ])
      W.all)
  in
  let round label =
    C.with_connection socket (fun fd ->
        let t0 = Unix.gettimeofday () in
        let resp = C.rpc fd (P.Run items) in
        let wall = Unix.gettimeofday () -. t0 in
        match resp with
        | P.Results { results; fresh; cached; errors } ->
          if errors > 0 then
            failwith (Fmt.str "serve: %s round had %d error(s)" label errors);
          Fmt.pr
            "%-8s %3d items in %7.3fs  (%5.1f items/s, %d fresh, %d \
             cached)@."
            label (List.length results) wall
            (float_of_int (List.length results) /. wall)
            fresh cached;
          (wall, results, fresh)
        | P.Error_r { msg; _ } -> failwith ("serve: rejected: " ^ msg)
        | _ -> failwith "serve: unexpected response")
  in
  let reports (r : P.result_ list) =
    List.map
      (fun (x : P.result_) ->
        match x.rs_outcome with
        | P.Ok_ { report; _ } -> J.to_string report
        | P.Err _ -> failwith "serve: error outcome in checked round")
      r
  in
  let d = start () in
  let cold_wall, cold_results, _ = round "cold" in
  let warm_wall, warm_results, warm_fresh = round "warm" in
  if warm_fresh <> 0 then
    failwith (Fmt.str "serve: warm round ran %d fresh simulations" warm_fresh);
  if reports cold_results <> reports warm_results then
    failwith "serve: warm reports diverge from cold reports";
  (* Scrape the daemon's histograms: the cold round populated the
     fresh item-latency series, the warm round the cached one. *)
  let scrape () =
    C.with_connection socket (fun fd ->
        match C.rpc fd P.Metrics with
        | P.Metrics_r text -> Muir_obs.Prom.parse text
        | _ -> failwith "serve: unexpected response to metrics")
  in
  let item_hist p cached =
    match
      Muir_obs.Prom.find_histogram p ~name:"muir_serve_item_seconds"
        ~labels:[ ("cached", cached) ] ()
    with
    | Some h -> h
    | None ->
      failwith
        (Fmt.str "serve: no item-latency histogram for cached=%s" cached)
  in
  let scraped = scrape () in
  let hf = item_hist scraped "false" and hc = item_hist scraped "true" in
  let n = List.length items in
  if hf.Muir_obs.Prom.hd_count <> n then
    failwith
      (Fmt.str "serve: fresh histogram counts %d observations, served %d"
         hf.Muir_obs.Prom.hd_count n);
  if hc.Muir_obs.Prom.hd_count <> n then
    failwith
      (Fmt.str "serve: cached histogram counts %d observations, served %d"
         hc.Muir_obs.Prom.hd_count n);
  let q h p = Muir_obs.Prom.quantile h p in
  let cold_p50 = q hf 0.5 and cold_p99 = q hf 0.99 in
  let warm_p50 = q hc 0.5 and warm_p99 = q hc 0.99 in
  Fmt.pr
    "item latency      cold p50 %.2fms p99 %.2fms   warm p50 %.3fms p99 \
     %.3fms@."
    (1000.0 *. cold_p50) (1000.0 *. cold_p99) (1000.0 *. warm_p50)
    (1000.0 *. warm_p99);
  (* The cache must not merely help on average: the slowest warm item
     must beat the median cold item outright. *)
  if warm_p99 >= cold_p50 then
    failwith
      (Fmt.str "serve: warm p99 (%.4fs) >= cold p50 (%.4fs)" warm_p99
         cold_p50);
  C.with_connection socket (fun fd -> ignore (C.rpc fd P.Shutdown));
  ignore (Domain.join d : S.drain_summary);
  (* Restart on the same cache directory: the disk store alone must
     answer the whole batch — zero fresh simulations across restarts. *)
  let d2 = start () in
  let restart_wall, restart_results, restart_fresh = round "restart" in
  if restart_fresh <> 0 then
    failwith
      (Fmt.str "serve: restarted daemon ran %d fresh simulations"
         restart_fresh);
  if reports cold_results <> reports restart_results then
    failwith "serve: post-restart reports diverge from cold reports";
  C.with_connection socket (fun fd -> ignore (C.rpc fd P.Shutdown));
  ignore (Domain.join d2 : S.drain_summary);
  Fmt.pr
    "warm/cold speedup %.1fx; restart warms from disk at %.1fx (%d \
     entries)@."
    (cold_wall /. warm_wall)
    (cold_wall /. restart_wall)
    (List.length items);
  (match json with
  | None -> ()
  | Some path ->
    (* The standard suite shape, built from the daemon's own responses:
       interchangeable with `bench --json` output downstream. *)
    let runs =
      List.map
        (fun (x : P.result_) ->
          match x.rs_outcome with
          | P.Ok_ { report; _ } -> R.run_of_json (J.get "run" report)
          | P.Err _ -> assert false)
        cold_results
    in
    let suite = { R.su_provenance = R.provenance (); su_runs = runs } in
    let oc = open_out path in
    output_string oc (R.suite_to_json suite);
    output_char oc '\n';
    close_out oc;
    Fmt.pr "wrote %d runs to %s@." (List.length runs) path);
  (try Sys.remove socket with Sys_error _ -> ());
  Array.iter
    (fun f -> try Sys.remove (Filename.concat cache_dir f) with Sys_error _ -> ())
    (try Sys.readdir cache_dir with Sys_error _ -> [||]);
  try Unix.rmdir cache_dir with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenchmarks (one per table/figure kernel)    *)

let bechamel () =
  kernel ();
  header "Bechamel: wall-clock cost of each experiment's kernel";
  let open Bechamel in
  let small name passes =
    let w = W.find name in
    let p = W.program w in
    Staged.stage (fun () ->
        let c = Muir_core.Build.circuit p in
        let _ = Opt.Pass.run_all passes c in
        ignore (Muir_sim.Sim.run c))
  in
  let tests =
    [ Test.make ~name:"table2:lower+model"
        (Staged.stage (fun () ->
             let p = W.program (W.find "spmv") in
             let c = Muir_core.Build.circuit p in
             ignore (Muir_model.Model.fpga (Muir_rtl.Lower.design c))));
      Test.make ~name:"fig9:hls-model"
        (Staged.stage (fun () ->
             ignore (Muir_hls.Hls.run (W.program (W.find "spmv")))));
      Test.make ~name:"fig11:fusion-sim" (small "spmv" [ Opt.Fusion.pass ]);
      Test.make ~name:"fig12:tiling-sim"
        (small "saxpy" [ Opt.Structural.tiling_pass ~tiles:4 () ]);
      Test.make ~name:"fig15:tensor-sim"
        (small "relu[T]" (Opt.Stacks.tensor_stack ()));
      Test.make ~name:"fig16:banking-sim"
        (small "spmv" [ Opt.Structural.cache_banking_pass ~banks:4 () ]);
      Test.make ~name:"fig17:stacked-sim"
        (small "spmv" (Opt.Stacks.loop_stack ()));
      Test.make ~name:"fig18:cpu-model"
        (Staged.stage (fun () ->
             ignore (Muir_cpu.Arm.run (W.program (W.find "spmv")))));
      Test.make ~name:"table4:rtl-diff"
        (Staged.stage (fun () ->
             let p = W.program (W.find "saxpy") in
             let a = Muir_core.Build.circuit p in
             let b = Muir_core.Build.circuit p in
             ignore
               (Muir_rtl.Rtl.diff (Muir_rtl.Lower.design a)
                  (Muir_rtl.Lower.design b)))) ]
  in
  let run_one test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
    in
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
    Hashtbl.iter
      (fun name est ->
        match Analyze.OLS.estimates est with
        | Some [ ns ] -> Fmt.pr "%-24s %12.1f us/run@." name (ns /. 1000.0)
        | _ -> Fmt.pr "%-24s (no estimate)@." name)
      analyzed
  in
  List.iter run_one tests

(* ------------------------------------------------------------------ *)
(* Machine-readable run reports and the benchmark regression gate      *)

module Report = Muir_trace.Report

(** Simulate one workload under [passes] and capture the full run
    report from the always-on counter bank.  Deterministic: wall
    seconds are deliberately left out so the emitted JSON is
    byte-stable across machines (see Report's determinism notes). *)
let report_run ?(passes = []) ?(unroll = false) ~stack (w : W.t) :
    Report.run =
  let p = W.program w in
  if unroll then ignore (Unroll.unroll ~max_trip:16 p);
  let c = Muir_core.Build.circuit ~name:w.wname p in
  let _ = Opt.Pass.run_all passes c in
  let r = Muir_sim.Sim.run c in
  check_outputs w p r;
  let s = r.Muir_sim.Sim.stats in
  let mem =
    List.map
      (fun (ms : Muir_sim.Memsys.struct_stats) ->
        { Report.m_name = ms.ss_name; m_accesses = ms.ss_accesses;
          m_hits = ms.ss_hits; m_misses = ms.ss_misses;
          m_conflicts = ms.ss_conflicts })
      s.mem
  in
  let d = Muir_rtl.Lower.design c in
  let f = Muir_model.Model.fpga d in
  let a = Muir_model.Model.asic d in
  Report.make ~workload:w.wname ~stack ~mem
    ~fpga:
      { Report.f_mhz = f.fr_mhz; f_alms = f.fr_alms; f_regs = f.fr_regs;
        f_dsps = f.fr_dsps; f_brams = f.fr_brams }
    ~asic:{ Report.a_ghz = a.ar_ghz; a_area = a.ar_area }
    ~total_cycles:s.total_cycles c r.Muir_sim.Sim.counters

(** [--json PATH]: every workload at baseline and under its
    per-category best stack, as one suite file.  This is how
    `bench/baseline.json` is produced and what CI's regression gate
    compares against. *)
let suite_json (path : string) =
  let runs =
    List.concat_map
      (fun (w : W.t) ->
        [ report_run ~stack:"baseline" w;
          report_run ~passes:(best_stack w) ~stack:"best" w ])
      W.all
  in
  let suite =
    { Report.su_provenance = Report.provenance (); su_runs = runs }
  in
  let oc = open_out path in
  output_string oc (Report.suite_to_json suite);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %d runs (%d workloads x 2 stacks) to %s@."
    (List.length runs) (List.length W.all) path

(** [compare BASE NEW [--tolerance PCT]]: the regression gate.  Exits
    non-zero iff some (workload, stack) pair got more than PCT percent
    slower; runs present on only one side are reported but never
    fail. *)
let compare_reports (base_path : string) (new_path : string)
    (tolerance : float) =
  let load path =
    try Report.load path with
    | Report.Bad_report e ->
      Fmt.epr "%s: %s@." path e;
      exit 2
    | Sys_error e ->
      Fmt.epr "%s@." e;
      exit 2
  in
  let base = load base_path in
  let next = load new_path in
  let cmp = Report.compare_suites ~tolerance base next in
  Report.pp_comparison ~tolerance Fmt.stdout cmp;
  if Report.any_regression cmp then exit 1

(* ------------------------------------------------------------------ *)

let experiments : (string * (unit -> unit)) list =
  [ ("table2", table2);
    ("fig9", fig9);
    ("localization", fun () -> ignore (localization ()));
    ("fig11", fun () -> ignore (fig11 ()));
    ("fig12", fun () -> ignore (fig12 ()));
    ("fig15", fun () -> ignore (fig15 ()));
    ("fig16", fun () -> ignore (fig16 ()));
    ("fig17", fun () -> ignore (fig17 ()));
    ("fig18", fun () -> ignore (fig18 ()));
    ("table3", table3);
    ("table4", table4);
    ("fig1", fig1);
    ("ablation", ablation);
    ("kernel", fun () -> kernel ());
    ("nn", nn);
    ("profile", profile);
    ("timing", timing);
    ("explore", explore);
    ("serve", fun () -> serve_experiment ());
    ("bechamel", bechamel) ]

let run_experiments args =
  let selected =
    if args = [] then
      [ ("table2", table2); ("fig9", fig9); ("fig1", fig1);
        ("fig17", fun () -> ignore (fig17 ()));
        ("fig18", fun () -> ignore (fig18 ()));
        ("table4", table4); ("nn", nn); ("ablation", ablation);
        ("explore", explore); ("bechamel", bechamel) ]
    else
      List.map
        (fun a ->
          match List.assoc_opt a experiments with
          | Some f -> (a, f)
          | None ->
            Fmt.epr "unknown experiment %s (have: %s)@." a
              (String.concat " " (List.map fst experiments));
            exit 1)
        args
  in
  List.iter (fun (_, f) -> f ()) selected

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> List.filter (fun a -> a <> "--") rest
    | [] -> []
  in
  match args with
  | "kernel" :: rest -> (
    (* kernel [--json PATH] *)
    match rest with
    | [] -> kernel ()
    | [ "--json"; path ] -> kernel ~json:path ()
    | a :: _ ->
      Fmt.epr "usage: bench kernel [--json PATH] (got %S)@." a;
      exit 2)
  | "serve" :: rest -> (
    (* serve [--json PATH] *)
    match rest with
    | [] -> serve_experiment ()
    | [ "--json"; path ] -> serve_experiment ~json:path ()
    | a :: _ ->
      Fmt.epr "usage: bench serve [--json PATH] (got %S)@." a;
      exit 2)
  | [ "--json"; path ] -> suite_json path
  | "--json" :: _ ->
    Fmt.epr "usage: bench --json REPORT.json@.";
    exit 2
  | "compare" :: rest -> (
    match rest with
    | [ base; next ] -> compare_reports base next 5.0
    | [ base; next; "--tolerance"; pct ] -> (
      match float_of_string_opt pct with
      | Some t when t >= 0.0 -> compare_reports base next t
      | _ ->
        Fmt.epr "compare: bad tolerance %S@." pct;
        exit 2)
    | _ ->
      Fmt.epr "usage: bench compare BASE.json NEW.json [--tolerance PCT]@.";
      exit 2)
  | _ -> run_experiments args
