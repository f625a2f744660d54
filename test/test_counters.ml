(* The always-on counter bank's contract.

   The counters are the source of truth for every aggregate number in
   the repository — profiles, run reports, the bench regression gate —
   so they carry the strongest invariants we have:

   1. Conservation: busy + Σ stall-cause cycles = lifetime cycles for
      every (task, node) of every workload under every registry stack,
      with no tracer attached at all.

   2. Ring independence: the bank is identical whether the run was
      untraced, traced into a capacity-0 ring, or traced into a tiny
      ring that overwrote almost everything.  Tracing is passive; the
      counters never depend on retained history.

   3. No overflow/degeneracy on long runs: a heavily unrolled workload
      under the biggest stack keeps every accumulator non-negative and
      conserved, and the derived floating-point stats stay finite.

   4. The regression gate built on the reports actually gates: a +10%
      injected cycle count is flagged at 5% tolerance, and a
      self-comparison never is. *)

module W = Muir_workloads.Workloads
module G = Muir_core.Graph
module Ctr = Muir_trace.Counters
module P = Muir_trace.Profile
module Report = Muir_trace.Report
module Sim = Muir_sim.Sim

let stacks () : (string * Muir_opt.Pass.t list) list =
  List.map
    (fun name ->
      match Muir_opt.Stacks.find_spec name with
      | Some sp -> (name, sp.sp_build sp.sp_defaults)
      | None -> Alcotest.failf "registry lost stack %s" name)
    (Muir_opt.Stacks.names ())

let run ?tracer ?(unroll = false) (w : W.t)
    (passes : Muir_opt.Pass.t list) : G.circuit * Sim.result =
  let p = W.program w in
  if unroll then ignore (Muir_ir.Unroll.unroll ~max_trip:16 p);
  let c = Muir_core.Build.circuit ~name:w.wname p in
  ignore (Muir_opt.Pass.run_all passes c);
  (c, Sim.run ?tracer c)

let check_conserved ~(ctx : string) (c : G.circuit) (r : Sim.result) =
  let prof = P.of_run c r.counters in
  Alcotest.(check bool) (ctx ^ ": profile has rows") true (prof.p_rows <> []);
  List.iter
    (fun (row : P.row) ->
      if not (P.conserved row) then
        Alcotest.failf "%s: node %s n%d violates conservation: Σ=%d span=%d"
          ctx row.r_tname row.r_node
          (Array.fold_left ( + ) 0 row.r_acc)
          row.r_span)
    prof.p_rows;
  Alcotest.(check int)
    (ctx ^ ": counter fires == kernel fires")
    r.stats.fires
    (Ctr.total_fires r.counters);
  Alcotest.(check int)
    (ctx ^ ": final_cycle == simulated cycles")
    r.stats.cycles r.counters.Ctr.final_cycle

(* 1. Conservation with no tracer, per workload, under every registry
   stack. *)
let test_conservation (w : W.t) () =
  List.iter
    (fun (sname, passes) ->
      let c, r = run w passes in
      check_conserved ~ctx:(w.wname ^ "/" ^ sname) c r)
    (stacks ())

(* 2. The bank must not depend on the ring: untraced, capacity-0 and
   a 16-slot ring that sheds nearly everything all agree exactly. *)
let same_bank ~(ctx : string) (a : Ctr.t) (b : Ctr.t) =
  Alcotest.(check int) (ctx ^ ": spawns") a.Ctr.spawns b.Ctr.spawns;
  Alcotest.(check int) (ctx ^ ": syncs") a.Ctr.syncs b.Ctr.syncs;
  Alcotest.(check int)
    (ctx ^ ": final cycle")
    a.Ctr.final_cycle b.Ctr.final_cycle;
  Ctr.iter_nodes
    (fun ~task ~node (ga : Ctr.node_ctr) ->
      match Ctr.find_node b ~task ~node with
      | None -> Alcotest.failf "%s: (%d, n%d) missing" ctx task node
      | Some gb ->
        Alcotest.(check int)
          (Fmt.str "%s: fires of (%d, n%d)" ctx task node)
          ga.Ctr.n_fires gb.Ctr.n_fires;
        Alcotest.(check int)
          (Fmt.str "%s: span of (%d, n%d)" ctx task node)
          ga.Ctr.n_span gb.Ctr.n_span;
        Alcotest.(check (array int))
          (Fmt.str "%s: causes of (%d, n%d)" ctx task node)
          ga.Ctr.n_acc gb.Ctr.n_acc)
    a;
  List.iter
    (fun k ->
      let oa = Option.get (Ctr.find_occ a k) in
      match Ctr.find_occ b k with
      | None -> Alcotest.failf "%s: occupancy key missing" ctx
      | Some ob ->
        Alcotest.(check (list int))
          (ctx ^ ": occupancy integral")
          [ oa.Ctr.o_cycles; oa.Ctr.o_sum; oa.Ctr.o_max ]
          [ ob.Ctr.o_cycles; ob.Ctr.o_sum; ob.Ctr.o_max ])
    (Ctr.occ_keys a)

let test_ring_independence (w : W.t) () =
  let _, r_off = run w [] in
  let _, r_zero = run ~tracer:(Muir_trace.Trace.create ~capacity:0 ()) w [] in
  let c, r_tiny = run ~tracer:(Muir_trace.Trace.create ~capacity:16 ()) w [] in
  same_bank ~ctx:(w.wname ^ " untraced vs cap-0") r_off.counters
    r_zero.counters;
  same_bank ~ctx:(w.wname ^ " untraced vs cap-16") r_off.counters
    r_tiny.counters;
  check_conserved ~ctx:(w.wname ^ "/cap-0") c r_zero;
  (* Cross-check against the trace-derived totals: in a ring big
     enough to lose nothing, the fire events are exactly the bank's
     fire count. *)
  let big = Muir_trace.Trace.create ~capacity:(1 lsl 22) () in
  let _, r_big = run ~tracer:big w [] in
  Alcotest.(check int)
    (w.wname ^ ": lossless ring")
    (Muir_trace.Trace.total_events big)
    (Muir_trace.Trace.retained_events big);
  let ring_fires =
    List.length
      (List.filter
         (function Muir_trace.Trace.Efire _ -> true | _ -> false)
         (Muir_trace.Trace.events big))
  in
  Alcotest.(check int)
    (w.wname ^ ": ring fires == counter fires")
    (Ctr.total_fires r_big.counters)
    ring_fires

(* The same contract under every registry stack: a stacked circuit
   traced into a 16-slot ring reports exactly what a freshly built,
   untraced copy of it reports — cycles, fires and the whole bank. *)
let test_stacked_ring_independence (w : W.t) () =
  List.iter
    (fun (sname, passes) ->
      let ctx = w.wname ^ "/" ^ sname in
      let _, r_off = run w passes in
      let _, r_tiny =
        run ~tracer:(Muir_trace.Trace.create ~capacity:16 ()) w passes
      in
      Alcotest.(check int)
        (ctx ^ ": total_cycles untraced == cap-16")
        r_off.stats.total_cycles r_tiny.stats.total_cycles;
      Alcotest.(check int)
        (ctx ^ ": fires untraced == cap-16")
        r_off.stats.fires r_tiny.stats.fires;
      same_bank ~ctx:(ctx ^ " untraced vs cap-16") r_off.counters
        r_tiny.counters)
    (stacks ())

(* Ring sizes that wrap at every odd stride must be just as invisible
   on a task-parallel workload, where spawns and syncs interleave. *)
let test_ring_capacity_sweep () =
  let w = W.find "fib" in
  let passes = List.assoc "cilk-stack" (stacks ()) in
  let _, r_off = run w passes in
  List.iter
    (fun capacity ->
      let _, r =
        run ~tracer:(Muir_trace.Trace.create ~capacity ()) w passes
      in
      Alcotest.(check int)
        (Fmt.str "fib cycles cap-%d" capacity)
        r_off.stats.total_cycles r.stats.total_cycles;
      same_bank ~ctx:(Fmt.str "fib untraced vs cap-%d" capacity)
        r_off.counters r.counters)
    [ 1; 2; 3; 7; 1024 ]

(* Simulation leaves the circuit as it found it: running one built
   circuit twice gives the same cycles, fires and bank. *)
let test_rerun_same_circuit () =
  List.iter
    (fun name ->
      let w = W.find name in
      let passes = Muir_opt.Stacks.best_loop_stack () in
      let c, r1 = run w passes in
      let r2 = Sim.run c in
      Alcotest.(check int)
        (name ^ ": total_cycles on re-run")
        r1.stats.total_cycles r2.stats.total_cycles;
      Alcotest.(check int)
        (name ^ ": fires on re-run")
        r1.stats.fires r2.stats.fires;
      same_bank ~ctx:(name ^ " first vs second run") r1.counters r2.counters)
    [ "gemm"; "fib"; "relu[T]" ]

(* 3. Long unrolled run: everything stays non-negative, conserved and
   finite. *)
let test_long_run () =
  let w = W.find "gemm" in
  let c, r =
    run ~unroll:true w (Muir_opt.Stacks.best_loop_stack ())
  in
  check_conserved ~ctx:"gemm unrolled/best" c r;
  Ctr.iter_nodes
    (fun ~task ~node (g : Ctr.node_ctr) ->
      if g.Ctr.n_fires < 0 || g.Ctr.n_span < 0
         || Array.exists (fun v -> v < 0) g.Ctr.n_acc then
        Alcotest.failf "negative accumulator on (%d, n%d)" task node)
    r.counters;
  Alcotest.(check bool)
    "a long run actually accumulated" true
    (Ctr.total_fires r.counters > 1000)

(* Occupancy integrals: every key is sampled once per cycle, so all
   integrals cover the same number of cycles and the mean cannot
   exceed the high-water mark. *)
let test_occupancy_integrals () =
  let w = W.find "gemm" in
  let _, r = run w [] in
  let keys = Ctr.occ_keys r.counters in
  Alcotest.(check bool) "has occupancy keys" true (keys <> []);
  let cycles =
    (Option.get (Ctr.find_occ r.counters (List.hd keys))).Ctr.o_cycles
  in
  List.iter
    (fun k ->
      let o = Option.get (Ctr.find_occ r.counters k) in
      Alcotest.(check int) "all keys sampled alike" cycles o.Ctr.o_cycles;
      Alcotest.(check bool)
        "mean <= max" true
        (Ctr.occ_mean o <= float_of_int o.Ctr.o_max))
    keys

(* Task-parallel workloads must show up in the spawn/sync counters. *)
let test_spawn_sync () =
  let w = W.find "fib" in
  let _, r = run w [] in
  Alcotest.(check bool) "fib spawns" true (r.counters.Ctr.spawns > 0);
  Alcotest.(check bool) "fib syncs" true (r.counters.Ctr.syncs > 0);
  (* fib(n) recursion spawns many children; every join completes. *)
  Alcotest.(check bool)
    "fib spawns >= syncs" true
    (r.counters.Ctr.spawns >= r.counters.Ctr.syncs)

(* Derived stats are guarded against degenerate runs: never nan/inf. *)
let test_finite_stats () =
  List.iter
    (fun (w : W.t) ->
      let _, r = run w [] in
      let s = r.Sim.stats in
      List.iter
        (fun (name, v) ->
          if not (Float.is_finite v) then
            Alcotest.failf "%s: %s is %f" w.wname name v)
        [ ("cycles_per_sec", s.cycles_per_sec);
          ("woken_per_cycle", s.woken_per_cycle);
          ("live_nodes_per_cycle", s.live_nodes_per_cycle) ])
    W.all

(* ------------------------------------------------------------------ *)
(* 4. Run reports and the regression gate                               *)

let report_of (w : W.t) ~stack passes : Report.run =
  let c, r = run w passes in
  Report.make ~workload:w.wname ~stack
    ~total_cycles:r.Sim.stats.total_cycles c r.counters

let suite runs = { Report.su_provenance = Report.provenance (); su_runs = runs }

let test_report_roundtrip () =
  let rep = report_of (W.find "gemm") ~stack:"baseline" [] in
  let parsed = Report.parse (Report.to_json rep) in
  (match parsed.su_runs with
  | [ r ] ->
    Alcotest.(check string) "workload survives" rep.r_workload r.r_workload;
    Alcotest.(check int) "cycles survive" rep.r_cycles r.r_cycles;
    Alcotest.(check int) "fires survive" rep.r_fires r.r_fires;
    Alcotest.(check int)
      "node rows survive"
      (List.length rep.r_nodes)
      (List.length r.r_nodes);
    let causes (x : Report.run) =
      List.concat_map (fun (n : Report.node_row) -> n.nd_causes) x.r_nodes
    in
    Alcotest.(check (list (pair string int)))
      "per-cause cycles survive" (causes rep) (causes r)
  | rs -> Alcotest.failf "expected 1 run, got %d" (List.length rs));
  (* Determinism: emitting the same run twice is byte-identical. *)
  Alcotest.(check string)
    "byte-stable emission" (Report.to_json rep) (Report.to_json rep);
  (* A report claiming a future schema must be refused. *)
  let future =
    Printf.sprintf
      "{\"provenance\":{\"schema\":%d,\"git_rev\":\"x\",\"dune_profile\":\"dev\"},\"runs\":[]}"
      (Report.schema_version + 1)
  in
  match Report.parse future with
  | exception Report.Bad_report _ -> ()
  | _ -> Alcotest.fail "accepted a newer schema"

let test_regression_gate () =
  let base =
    suite
      [ report_of (W.find "saxpy") ~stack:"baseline" [];
        report_of (W.find "fib") ~stack:"baseline" [] ]
  in
  (* Self-comparison: always clean. *)
  let self = Report.compare_suites ~tolerance:5.0 base base in
  Alcotest.(check bool) "self compare ok" false (Report.any_regression self);
  Alcotest.(check int)
    "all runs matched" (List.length base.su_runs)
    (List.length self.cmp_verdicts);
  (* +10% injected cycles: flagged at 5%, tolerated at 15%. *)
  let slower =
    suite
      (List.map
         (fun (r : Report.run) ->
           { r with Report.r_cycles = r.r_cycles + (r.r_cycles / 10) + 1 })
         base.su_runs)
  in
  let flagged = Report.compare_suites ~tolerance:5.0 base slower in
  Alcotest.(check bool)
    "+10%% flagged at 5%% tolerance" true
    (Report.any_regression flagged);
  let tolerated = Report.compare_suites ~tolerance:15.0 base slower in
  Alcotest.(check bool)
    "+10%% tolerated at 15%% tolerance" false
    (Report.any_regression tolerated);
  (* One-sided runs are reported, never failed. *)
  let partial = suite [ List.hd base.su_runs ] in
  let onesided = Report.compare_suites ~tolerance:5.0 base partial in
  Alcotest.(check bool)
    "missing run is not a regression" false
    (Report.any_regression onesided);
  Alcotest.(check int) "missing run reported" 1
    (List.length onesided.cmp_only_base)

let conservation_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case w.wname `Quick (test_conservation w))
    W.all

let ring_cases =
  List.map
    (fun name ->
      let w = W.find name in
      Alcotest.test_case name `Quick (test_ring_independence w))
    [ "gemm"; "saxpy"; "fib"; "2mm[T]" ]

let () =
  Alcotest.run "counters"
    [ ("conservation", conservation_cases);
      ("ring independence", ring_cases);
      ( "stacked ring independence",
        List.map
          (fun (w : W.t) ->
            Alcotest.test_case w.wname `Quick
              (test_stacked_ring_independence w))
          W.all );
      ( "determinism",
        [ Alcotest.test_case "fib ring capacities" `Quick
            test_ring_capacity_sweep;
          Alcotest.test_case "re-run one circuit" `Quick
            test_rerun_same_circuit ] );
      ( "bank",
        [ Alcotest.test_case "long unrolled run" `Quick test_long_run;
          Alcotest.test_case "occupancy integrals" `Quick
            test_occupancy_integrals;
          Alcotest.test_case "spawn/sync counters" `Quick test_spawn_sync;
          Alcotest.test_case "finite derived stats" `Quick test_finite_stats ]
      );
      ( "reports",
        [ Alcotest.test_case "json round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "regression gate" `Quick test_regression_gate ]
      ) ]
