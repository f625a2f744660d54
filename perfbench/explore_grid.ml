(* explore-grid: Explore.run, grid strategy with timing pruning, at
   jobs = the host's core count, each time on a fresh cache: the
   `muirc explore` path and the repo's only multi-domain code
   (Muir_dse.Pool).  It simulates the tiled/banked configurations
   sim-suite never builds, and since OCaml 5 minor collections stop
   every domain, a kernel change that allocates more costs more here.

   Subjects are fixed — one loop nest, one Cilk program, one
   tensor-graph model — and cheap enough for many rounds a run.  The
   grid keeps its default order: Explore.run prunes each chunk of
   evaluations against the frontier simulated so far, so the order
   decides how many configurations are simulated.  The seed sets only
   the subjects' round-robin order, so every seed does the same work.

   Gates: a re-explore on the warm cache does 0 fresh simulations and
   returns an identical frontier. *)

open Common
module X = Muir_dse.Explore
module W = Muir_workloads.Workloads

let subjects = [| "rgb2yuv"; "saxpy"; "mlp" |]

let stage_names =
  List.map Muir_pipeline.Pipeline.stage_name Muir_pipeline.Pipeline.stages

let frontier_json (x : X.t) = String.concat "," (List.map X.eval_to_json x.x_frontier)

let run ~seed ~seconds ~trace : outcome =
  let jobs = Domain.recommended_domain_count () in
  witness_cores := jobs;
  let rng = Random.State.make [| seed |] in
  let subs = Array.map (fun n -> X.workload_subject (W.find n)) subjects in
  let grid = X.default_grid () in
  (* Set-up: a warm-up explore of the first subject, which brings up
     the domains and lets the heap grow before anything is timed. *)
  let setup_s, _ = setup_median 3 (fun () -> X.run ~jobs ~timing_prune:true ~grid subs.(0)) in
  let ns = Array.length subs in
  let order = shuffle rng (Array.init ns Fun.id) in
  let g = gates () in
  let wall = samples () in
  let untraced_rounds = samples () and traced_rounds = samples () in
  (* Evaluations are the ops inside an explore, keyed by subject and
     configuration key. *)
  let eval_s = samples () in
  let stage_s = List.map (fun n -> (n, samples ())) stage_names in
  let evals = Array.make ns 0 in
  let best = Array.make ns (0, 0) in
  let round_sims = ref [] and round_pruned = ref [] and util = ref [] in
  let round_cycles = ref [] and sim_secs = samples () in
  let rss =
    rounds ~seconds ~min_rounds:(if trace then 4 else 3) (fun rd ->
      tracing := trace && rd mod 2 = 1;
      let sims = ref 0 and pruned = ref 0 and busy = ref 0.0 and wall_sum = ref 0.0 in
      let cycles = ref 0 in
      Array.iter
        (fun si ->
          let s = subs.(si) in
          attempt g;
          let cache = Muir_dse.Cache.create () in
          read_host ();
          let t0 = now () in
          let x =
            Common.op si (fun () ->
                span "dse.explore" (fun () ->
                    X.run ~jobs ~timing_prune:true ~cache ~grid s))
          in
          let dt = now () -. t0 in
          add wall si dt;
          add (if !tracing then traced_rounds else untraced_rounds) si dt;
          wall_sum := !wall_sum +. dt;
          sims := !sims + x.x_fresh_sims;
          pruned := !pruned + x.x_pruned + x.x_timing_pruned;
          evals.(si) <- x.x_fresh_evals;
          List.iter
            (fun (e : X.eval) ->
              let k = (s.s_name, e.e_key) in
              add eval_s k (sum e.e_secs);
              busy := !busy +. sum e.e_secs;
              Option.iter
                (fun c ->
                  cycles := !cycles + c;
                  add sim_secs k e.e_secs.(Muir_pipeline.Pipeline.(stage_index Simulate)))
                e.e_cycles;
              List.iteri (fun st (_, ss) -> add ss k e.e_secs.(st)) stage_s)
            x.x_evals;
          (match x.x_best with
          | Some b -> best.(si) <- (Option.get b.e_cycles, b.e_alms)
          | None -> fail g "%s: no simulated design" s.s_name);
          let again = X.run ~jobs ~timing_prune:true ~cache ~grid s in
          if again.x_fresh_sims <> 0 then
            fail g "%s: re-explore on a warm cache ran %d fresh sims" s.s_name
              again.x_fresh_sims;
          if frontier_json again <> frontier_json x then
            fail g "%s: re-explore changed the frontier" s.s_name)
        order;
      round_sims := float_of_int !sims :: !round_sims;
      round_cycles := float_of_int !cycles :: !round_cycles;
      round_pruned := float_of_int !pruned :: !round_pruned;
      util := (!busy /. (float_of_int jobs *. !wall_sum)) :: !util)
  in
  tracing := false;
  let fresh_sims = same_every_round g "dse.fresh_sims" !round_sims in
  let pruned = same_every_round g "dse.pruned" !round_pruned in
  let mcycles = same_every_round g "sim.mcycles" !round_cycles /. 1e6 in
  let total_evals = float_of_int (Array.fold_left ( + ) 0 evals) in
  let e2e =
    end_to_end g ~setup_s ~items_per_s:(total_evals /. sum (medians wall)) ~lat:eval_s
      ~rss
      ~cycles:(Array.to_list (Array.map (fun (c, _) -> float_of_int c) best))
      ~alms:(Array.to_list (Array.map (fun (_, a) -> float_of_int a) best))
  in
  let layer =
    if not trace then []
    else
      List.map (fun (n, ss) -> (n ^ "_ms", mean_median_ms ss, "ms")) stage_s
      @ [ ("sim.mcycles", mcycles, "Mcycles");
          ("sim.mcycles_per_s", mcycles /. sum (medians sim_secs), "Mcycles/s");
          ("dse.fresh_sims", fresh_sims, "count");
          ("dse.pruned", pruned, "count");
          ("dse.sims_per_eval", fresh_sims /. total_evals, "ratio");
          ("dse.pool_util", median (Array.of_list !util), "ratio");
          trace_overhead ~traced:traced_rounds ~untraced:untraced_rounds ]
  in
  { attempted = g.g_attempted; failed = g.g_failed; metrics = e2e @ layer;
    exact = [ ("dse.fresh_sims", fresh_sims); ("sim.mcycles", mcycles) ] }
