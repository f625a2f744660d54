(* Tensor-graph frontend suite: shape inference goldens, rejection of
   ill-shaped graphs, graph-level fusion legality, and the end-to-end
   contract — lowered models simulate to outputs that match the exact
   golden models BIT FOR BIT (not within a tolerance) under every
   registry pass stack, fused and unfused. *)

open Muir_ir
module Nn = Muir_nn
module W = Muir_workloads.Workloads
module Stacks = Muir_opt.Stacks

(* --- shape inference ----------------------------------------------- *)

let check_shape g name expected =
  let n =
    List.find (fun (n : Nn.Graph.node) -> n.name = name)
      (g : Nn.Graph.t).nodes
  in
  Alcotest.(check (list int)) (name ^ " shape") expected n.shape

let test_mlp_shapes () =
  let g = Nn.Models.mlp () in
  check_shape g "X" [ 4; 16 ];
  check_shape g "H1" [ 4; 16 ];
  check_shape g "R1" [ 4; 16 ];
  check_shape g "H2" [ 4; 8 ];
  check_shape g "Y" [ 4; 8 ]

let test_lenet_shapes () =
  let g = Nn.Models.lenet () in
  check_shape g "C1" [ 4; 12; 12 ];
  check_shape g "P1" [ 4; 6; 6 ];
  check_shape g "C2" [ 6; 4; 4 ];
  check_shape g "P2" [ 6; 2; 2 ];
  check_shape g "F" [ 1; 24 ];
  check_shape g "D" [ 1; 10 ];
  check_shape g "Y" [ 1; 10 ]

(* matmul + residual add also infer (neither model uses them) *)
let test_matmul_add_shapes () =
  let g = Nn.Graph.create "resid" in
  let x = Nn.Graph.input g ~name:"X" ~shape:[ 4; 4 ] ~seed:1 () in
  let w = Nn.Graph.weight g ~name:"W" ~shape:[ 4; 4 ] ~seed:2 () in
  let m = Nn.Graph.matmul g ~name:"M" x w in
  let a = Nn.Graph.add_ g ~name:"A" m x in
  Nn.Graph.output g a;
  let g = Nn.Shape.infer g in
  check_shape g "M" [ 4; 4 ];
  check_shape g "A" [ 4; 4 ]

let expect_ill name (build : unit -> Nn.Graph.t) =
  match build () with
  | (_ : Nn.Graph.t) -> Alcotest.failf "%s: ill-shaped graph accepted" name
  | exception Nn.Shape.Shape_error _ -> ()

let test_rejections () =
  expect_ill "dense inner mismatch" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 6 ] ~seed:1 () in
      let w = Nn.Graph.weight g ~name:"W" ~shape:[ 5; 4 ] ~seed:2 () in
      let b = Nn.Graph.weight g ~name:"B" ~shape:[ 4 ] ~seed:3 () in
      Nn.Graph.output g (Nn.Graph.dense g ~name:"D" x w b);
      Nn.Shape.infer g);
  expect_ill "dense bias mismatch" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 6 ] ~seed:1 () in
      let w = Nn.Graph.weight g ~name:"W" ~shape:[ 6; 4 ] ~seed:2 () in
      let b = Nn.Graph.weight g ~name:"B" ~shape:[ 3 ] ~seed:3 () in
      Nn.Graph.output g (Nn.Graph.dense g ~name:"D" x w b);
      Nn.Shape.infer g);
  expect_ill "conv channel mismatch" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 8; 8 ] ~seed:1 () in
      let k = Nn.Graph.weight g ~name:"K" ~shape:[ 4; 3; 3; 3 ] ~seed:2 () in
      let b = Nn.Graph.weight g ~name:"B" ~shape:[ 4 ] ~seed:3 () in
      Nn.Graph.output g (Nn.Graph.conv2d g ~name:"C" x k b);
      Nn.Shape.infer g);
  expect_ill "maxpool non-divisible" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 1; 5; 5 ] ~seed:1 () in
      Nn.Graph.output g (Nn.Graph.maxpool g ~name:"P" x);
      Nn.Shape.infer g);
  expect_ill "add shape mismatch" (fun () ->
      let g = Nn.Graph.create "bad" in
      let a = Nn.Graph.input g ~name:"A" ~shape:[ 2; 3 ] ~seed:1 () in
      let b = Nn.Graph.input g ~name:"B" ~shape:[ 3; 2 ] ~seed:2 () in
      Nn.Graph.output g (Nn.Graph.add_ g ~name:"S" a b);
      Nn.Shape.infer g);
  expect_ill "softmax non-2D" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 4; 4 ] ~seed:1 () in
      Nn.Graph.output g (Nn.Graph.softmax g ~name:"S" x);
      Nn.Shape.infer g);
  expect_ill "matmul non-2D" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 3; 4 ] ~seed:1 () in
      let w = Nn.Graph.weight g ~name:"W" ~shape:[ 4; 2 ] ~seed:2 () in
      Nn.Graph.output g (Nn.Graph.matmul g ~name:"M" x w);
      Nn.Shape.infer g);
  expect_ill "dead operator" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 2 ] ~seed:1 () in
      let r = Nn.Graph.relu g ~name:"R" x in
      ignore (Nn.Graph.relu g ~name:"DEAD" x);
      Nn.Graph.output g r;
      Nn.Shape.infer g);
  expect_ill "leaf output" (fun () ->
      let g = Nn.Graph.create "bad" in
      let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 2 ] ~seed:1 () in
      Nn.Graph.output g x;
      Nn.Shape.infer g)

(* --- fusion -------------------------------------------------------- *)

let test_fusion_report () =
  let g = Nn.Models.mlp () in
  let r = Nn.Fuse.run g in
  Alcotest.(check int) "mlp relus folded" 1 r.relus_folded;
  Alcotest.(check int) "mlp flattens elided" 0 r.flattens_elided;
  let r2 = Nn.Fuse.run g in
  Alcotest.(check int) "idempotent (relu)" 0 r2.relus_folded;
  let g = Nn.Models.lenet () in
  let r = Nn.Fuse.run g in
  Alcotest.(check int) "lenet relus folded" 2 r.relus_folded;
  Alcotest.(check int) "lenet flattens elided" 1 r.flattens_elided

let test_task_counts () =
  let tasks name fused =
    let g = (Option.get (Nn.Models.find name)) () in
    if fused then ignore (Nn.Fuse.run g);
    let _, (r : Nn.Lower.report) = Nn.Lower.lower g in
    r.tasks
  in
  Alcotest.(check int) "mlp unfused tasks" 4 (tasks "mlp" false);
  Alcotest.(check int) "mlp fused tasks" 3 (tasks "mlp" true);
  Alcotest.(check int) "lenet unfused tasks" 9 (tasks "lenet" false);
  Alcotest.(check int) "lenet fused tasks" 6 (tasks "lenet" true)

(* a relu feeding two consumers, or producing a graph output, must
   not be folded away *)
let test_fusion_legality () =
  let g = Nn.Graph.create "shared" in
  let x = Nn.Graph.input g ~name:"X" ~shape:[ 2; 2 ] ~seed:1 () in
  let w = Nn.Graph.weight g ~name:"W" ~shape:[ 2; 2 ] ~seed:2 () in
  let m = Nn.Graph.matmul g ~name:"M" x w in
  let r = Nn.Graph.relu g ~name:"R" m in
  let s = Nn.Graph.add_ g ~name:"S" r r in
  Nn.Graph.output g s;
  Nn.Graph.output g r;
  let g = Nn.Shape.infer g in
  let rep = Nn.Fuse.run g in
  Alcotest.(check int) "output relu not folded" 0 rep.relus_folded

(* --- lowering determinism ------------------------------------------ *)

let test_lowering_deterministic () =
  List.iter
    (fun name ->
      let a = (W.nn_workload name).source in
      let b = (W.nn_workload name).source in
      Alcotest.(check string) (name ^ " source stable") a b)
    [ "mlp"; "lenet" ]

(* --- dot render ---------------------------------------------------- *)

let test_gdot () =
  let g = Nn.Models.lenet () in
  ignore (Nn.Fuse.run g);
  let dot = Nn.Gdot.render g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph");
  let has needle =
    let nl = String.length needle and l = String.length dot in
    let rec go i = i + nl <= l && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "per-node shapes" true (has "[6x2x2]");
  Alcotest.(check bool) "fused stage marked" true (has "+ relu");
  Alcotest.(check bool) "elided flatten dashed" true (has "dashed")

(* --- end-to-end: sim output == golden, bit for bit ------------------ *)

let data_fn (i : Nn.Lower.init) : float array =
  Array.map
    (function Types.VFloat f -> f | _ -> 0.0)
    (Muir_workloads.Data.floats ~seed:i.seed ~lo:i.lo ~hi:i.hi i.count)

let golden_outputs name ~fused =
  let g = (Option.get (Nn.Models.find name)) () in
  if fused then ignore (Nn.Fuse.run g);
  Nn.Golden.run g ~data:data_fn

let sim_floats (r : Muir_sim.Sim.result) p name =
  Array.map
    (function
      | Types.VFloat f -> f
      | v -> Alcotest.failf "non-float in %s: %s" name (Types.value_to_string v))
    (Memory.dump_global r.memory p name)

let check_bits tag expected actual =
  Alcotest.(check int)
    (tag ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float actual.(i) then
        Alcotest.failf "%s[%d]: golden %h (%Lx) != sim %h (%Lx)" tag i e
          (Int64.bits_of_float e) actual.(i)
          (Int64.bits_of_float actual.(i)))
    expected

let test_model_exact name ~fused () =
  let w = W.nn_workload ~fused name in
  let p = W.program w in
  let gold = golden_outputs name ~fused in
  List.iter
    (fun (spec : Stacks.spec) ->
      let c, _ =
        Stacks.optimized ~name:w.wname (spec.sp_build spec.sp_defaults) p
      in
      let r = Muir_sim.Sim.run c in
      List.iter
        (fun (oname, expected) ->
          check_bits
            (Fmt.str "%s/%s %s" w.wname spec.sp_name oname)
            expected
            (sim_floats r p oname))
        gold)
    Stacks.registry

(* fused and unfused lowerings must produce identical bits, and fusion
   must actually pay: fewer cycles on the same model *)
let test_fused_equals_unfused name () =
  let run fused =
    let w = W.nn_workload ~fused name in
    let p = W.program w in
    let c = Muir_core.Build.circuit ~name:w.wname p in
    (Muir_sim.Sim.run c, p, w)
  in
  let rf, pf, wf = run true in
  let ru, pu, _ = run false in
  List.iter
    (fun oname ->
      check_bits
        (Fmt.str "%s fused-vs-unfused %s" name oname)
        (sim_floats ru pu oname) (sim_floats rf pf oname))
    wf.outputs;
  Alcotest.(check bool)
    (Fmt.str "%s: fusion reduces cycles (%d fused vs %d unfused)" name
       rf.stats.total_cycles ru.stats.total_cycles)
    true
    (rf.stats.total_cycles < ru.stats.total_cycles)

let () =
  Alcotest.run "nn"
    [ ( "shapes",
        [ Alcotest.test_case "mlp" `Quick test_mlp_shapes;
          Alcotest.test_case "lenet" `Quick test_lenet_shapes;
          Alcotest.test_case "matmul+add" `Quick test_matmul_add_shapes;
          Alcotest.test_case "ill-shaped rejected" `Quick test_rejections ] );
      ( "fusion",
        [ Alcotest.test_case "reports" `Quick test_fusion_report;
          Alcotest.test_case "task counts" `Quick test_task_counts;
          Alcotest.test_case "legality" `Quick test_fusion_legality ] );
      ( "lowering",
        [ Alcotest.test_case "deterministic" `Quick
            test_lowering_deterministic;
          Alcotest.test_case "gdot" `Quick test_gdot ] );
      ( "exact-vs-golden",
        [ Alcotest.test_case "mlp fused" `Slow
            (test_model_exact "mlp" ~fused:true);
          Alcotest.test_case "mlp unfused" `Slow
            (test_model_exact "mlp" ~fused:false);
          Alcotest.test_case "lenet fused" `Slow
            (test_model_exact "lenet" ~fused:true);
          Alcotest.test_case "lenet unfused" `Slow
            (test_model_exact "lenet" ~fused:false) ] );
      ( "fused-vs-unfused",
        [ Alcotest.test_case "mlp" `Slow (test_fused_equals_unfused "mlp");
          Alcotest.test_case "lenet" `Slow
            (test_fused_equals_unfused "lenet") ] ) ]
