(* Benchmark entry point: runs one workload for a given time and prints
   one JSON line {workload, attempted, failed, metrics, exact, host}.
   perfbench/run.py builds and drives it; see perfbench/NOTES.md. *)

let usage =
  "pb --workload NAME --seed N --seconds S --trace 0|1 --baseline FILE \
   [--spans FILE] [--inject FRACTION]\n\
   pb --witness"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref false and baseline = ref "bench/baseline.json" in
  let spans = ref "" and inject = ref 0.0 and witness = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Int (fun t -> trace := t = 1), "0|1");
      ("--baseline", Arg.Set_string baseline, "FILE locked cycles");
      ("--spans", Arg.Set_string spans, "FILE write traced spans here");
      ("--inject", Arg.Set_float inject,
       "FRACTION busy-wait this share of simulate time (self-check)");
      ("--witness", Arg.Set witness,
       " only print the all-core integer witness in ms (run.py's host gate)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !witness then begin
    Printf.printf "%.17g\n" (Common.alu_all_ms ());
    exit 0
  end;
  let alu0 = Common.alu_ms () and mem0 = Common.mem_ms () in
  let seconds = !seconds and seed = !seed and trace = !trace in
  let o =
    match !workload with
    | "sim-suite" ->
      Sim_suite.run ~baseline:!baseline ~seed ~seconds ~trace ~inject:!inject
    | "check-suite" -> Check_suite.run ~baseline:!baseline ~seed ~seconds ~trace
    | "explore-grid" -> Explore_grid.run ~seed ~seconds ~trace
    | w -> failwith ("unknown workload " ^ w)
  in
  let alu1 = Common.alu_ms () and mem1 = Common.mem_ms () in
  if !spans <> "" && trace then Common.write_spans !spans;
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric"
  in
  let obj kvs = "{" ^ String.concat "," kvs ^ "}" in
  let kv k v = Printf.sprintf "%S:%s" k v in
  let host =
    [ ("host.alu_ms", Common.median [| alu0; alu1 |], "ms");
      ("host.mem_ms", Common.median [| mem0; mem1 |], "ms");
      ("host.alloc_ms", Common.median (Array.of_list !Common.readings), "ms") ]
  in
  print_endline
    (obj
       [ kv "workload" (Printf.sprintf "%S" !workload);
         kv "attempted" (string_of_int o.attempted);
         kv "failed" (string_of_int o.failed);
         kv "metrics"
           (obj
              (List.map
                 (fun (n, v, u) ->
                   kv n (obj [ kv "value" (num v); kv "unit" (Printf.sprintf "%S" u) ]))
                 (o.metrics @ host)));
         kv "exact"
           (obj
              (List.map
                 (fun (n, v) -> kv n (num v))
                 (List.filter_map
                    (fun (n, v, _) ->
                      if String.starts_with ~prefix:"design_" n then Some (n, v) else None)
                    o.metrics
                 @ o.exact)));
         kv "host"
           (obj
              [ kv "alu_ms" (obj [ kv "start" (num alu0); kv "end" (num alu1) ]);
                kv "mem_ms" (obj [ kv "start" (num mem0); kv "end" (num mem1) ]) ]) ])
