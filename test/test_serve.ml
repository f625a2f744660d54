(* Tests for the serve subsystem: wire-protocol codecs and framing,
   malformed/oversize/truncated request rejection, on-disk result-cache
   persistence and corruption recovery, per-item deadlines, batch
   deduplication, cold/warm byte-identity across daemon restarts,
   admission-queue overload, the staged pipeline's equivalence with the
   direct toolchain calls, and an end-to-end socket round trip. *)

module Proto = Muir_serve.Proto
module Rcache = Muir_serve.Rcache
module Server = Muir_serve.Server
module Client = Muir_serve.Client
module Pipeline = Muir_pipeline.Pipeline
module J = Muir_trace.Json
module W = Muir_workloads.Workloads

let item ?(id = 0) ?(stack = "baseline") ?tiles ?banks ?(off = [])
    ?deadline_ms src : Proto.item =
  { Proto.it_id = id; it_src = src; it_stack = stack; it_tiles = tiles;
    it_banks = banks; it_off = off; it_deadline_ms = deadline_ms }

(* A raw serve-v1 item as an older client sends it, with "jobs". *)
let item_with_jobs ~id workload : Proto.item =
  Proto.item_of_json
    (J.parse (Fmt.str {|{"id":%d,"workload":"%s","jobs":2}|} id workload))

let results_of = function
  | Proto.Results { results; fresh; cached; errors } ->
    (results, fresh, cached, errors)
  | _ -> Alcotest.fail "expected a run response"

let outcome (rs : Proto.result_ list) (id : int) : Proto.outcome =
  match List.find_opt (fun (r : Proto.result_) -> r.rs_id = id) rs with
  | Some r -> r.rs_outcome
  | None -> Alcotest.fail (Fmt.str "no result for item %d" id)

let report_string = function
  | Proto.Ok_ { report; _ } -> J.to_string report
  | Proto.Err { code; msg; _ } ->
    Alcotest.fail (Fmt.str "expected ok, got error %s: %s" code msg)

let err_code = function
  | Proto.Err { code; _ } -> code
  | Proto.Ok_ _ -> Alcotest.fail "expected an error outcome"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "muir-serve-test-%d-%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Array.iter
        (fun f -> Sys.remove (Filename.concat d f))
        (Sys.readdir d);
    d

(* --- protocol codecs ------------------------------------------------ *)

let test_request_roundtrip () =
  let hostile = "we\"ird\\na\nme\twith \x01 bytes and \xe2\x9c\x93" in
  let req =
    Proto.Run
      [ item ~id:3 ~stack:"loop-stack" ~tiles:4 ~banks:2
          ~off:[ "op-fusion" ] ~deadline_ms:250
          (Proto.Workload "gemm");
        item ~id:7 (Proto.Inline { name = hostile; text = hostile }) ]
  in
  let s = Proto.request_to_string req in
  (match Proto.request_of_string s with
  | Proto.Run [ a; b ] ->
    Alcotest.(check int) "id" 3 a.it_id;
    Alcotest.(check string) "stack" "loop-stack" a.it_stack;
    Alcotest.(check (option int)) "tiles" (Some 4) a.it_tiles;
    Alcotest.(check (option int)) "banks" (Some 2) a.it_banks;
    Alcotest.(check (list string)) "off" [ "op-fusion" ] a.it_off;
    Alcotest.(check (option int)) "deadline" (Some 250) a.it_deadline_ms;
    (match b.it_src with
    | Proto.Inline { name; text } ->
      Alcotest.(check string) "hostile name survives" hostile name;
      Alcotest.(check string) "hostile text survives" hostile text
    | _ -> Alcotest.fail "expected inline source")
  | _ -> Alcotest.fail "round trip lost the request shape");
  (* An older client's "jobs" is accepted and ignored. *)
  Alcotest.(check bool) "jobs ignored" true
    (item_with_jobs ~id:5 "gemm" = item ~id:5 (Proto.Workload "gemm"));
  (* stats/shutdown round-trip too *)
  Alcotest.(check bool) "stats" true
    (Proto.request_of_string (Proto.request_to_string Proto.Stats)
    = Proto.Stats);
  Alcotest.(check bool) "shutdown" true
    (Proto.request_of_string (Proto.request_to_string Proto.Shutdown)
    = Proto.Shutdown)

let expect_bad (label : string) (s : string) =
  match Proto.request_of_string s with
  | _ -> Alcotest.fail (label ^ ": accepted a malformed request")
  | exception Proto.Bad_request _ -> ()

let test_malformed_requests () =
  expect_bad "garbage" "not json at all {{{";
  expect_bad "no version" {|{"op":"run","items":[]}|};
  expect_bad "wrong version" {|{"muirc":"serve-v9","op":"stats"}|};
  expect_bad "unknown op" {|{"muirc":"serve-v1","op":"dance"}|};
  expect_bad "run without items" {|{"muirc":"serve-v1","op":"run"}|};
  expect_bad "item no source"
    {|{"muirc":"serve-v1","op":"run","items":[{"id":1}]}|};
  expect_bad "item both sources"
    {|{"muirc":"serve-v1","op":"run","items":[{"id":1,"workload":"gemm","source":"x"}]}|};
  expect_bad "item missing id"
    {|{"muirc":"serve-v1","op":"run","items":[{"workload":"gemm"}]}|};
  expect_bad "bad jobs"
    {|{"muirc":"serve-v1","op":"run","items":[{"id":1,"workload":"gemm","jobs":0}]}|}

(* --- framing -------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = String.init 5000 (fun i -> Char.chr (i mod 256)) in
      Proto.write_frame a payload;
      Proto.write_frame a "";
      Alcotest.(check (option string)) "payload" (Some payload)
        (Proto.read_frame b);
      Alcotest.(check (option string)) "empty frame" (Some "")
        (Proto.read_frame b);
      Unix.close a;
      Alcotest.(check (option string)) "clean EOF" None (Proto.read_frame b))

let test_truncated_frames () =
  (* Header cut short: 2 of 4 length bytes, then EOF. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\x00\x01" 0 2);
      Unix.close a;
      match Proto.read_frame b with
      | _ -> Alcotest.fail "truncated header accepted"
      | exception Proto.Frame_error _ -> ());
  (* Payload cut short: header promises 100 bytes, 3 arrive. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\x00\x00\x00\x64abc" 0 7);
      Unix.close a;
      match Proto.read_frame b with
      | _ -> Alcotest.fail "truncated payload accepted"
      | exception Proto.Frame_error _ -> ())

let test_oversize_frame () =
  with_socketpair (fun a b ->
      Proto.write_frame a (String.make 100 'x');
      match Proto.read_frame ~max_frame:10 b with
      | _ -> Alcotest.fail "oversize frame accepted"
      | exception Proto.Oversize n -> Alcotest.(check int) "length" 100 n)

(* --- malformed payloads against a live server state ----------------- *)

let test_handle_malformed () =
  let t = Server.create () in
  (match Server.handle_payload t "}{ nope" with
  | Proto.Error_r { code; _ } ->
    Alcotest.(check string) "code" "bad_request" code
  | _ -> Alcotest.fail "garbage payload not rejected");
  (* ... and the server still works afterwards. *)
  let rs, fresh, _, errors =
    results_of (Server.handle t (Proto.Run [ item (Proto.Workload "saxpy") ]))
  in
  Alcotest.(check int) "still serving" 1 fresh;
  Alcotest.(check int) "no errors" 0 errors;
  ignore (report_string (outcome rs 0))

(* --- per-item failure containment ----------------------------------- *)

let test_item_errors_contained () =
  let t = Server.create () in
  let rs, fresh, _, errors =
    results_of
      (Server.handle t
         (Proto.Run
            [ item ~id:0 (Proto.Workload "no-such-workload");
              item ~id:1 ~stack:"no-such-stack" (Proto.Workload "saxpy");
              item ~id:2
                (Proto.Inline { name = "broken"; text = "func nope {" });
              item ~id:3 ~deadline_ms:0 (Proto.Workload "fib");
              item ~id:4 (Proto.Workload "saxpy") ]))
  in
  Alcotest.(check int) "four items failed" 4 errors;
  Alcotest.(check int) "the good item ran" 1 fresh;
  Alcotest.(check string) "unknown workload" "bad_request"
    (err_code (outcome rs 0));
  Alcotest.(check string) "unknown stack" "bad_request"
    (err_code (outcome rs 1));
  Alcotest.(check string) "compile error" "compile_error"
    (err_code (outcome rs 2));
  (match outcome rs 3 with
  | Proto.Err { code; stage; _ } ->
    Alcotest.(check string) "deadline code" "deadline" code;
    Alcotest.(check (option string)) "deadline names a stage"
      (Some "compile") stage
  | _ -> Alcotest.fail "expired deadline did not fail");
  ignore (report_string (outcome rs 4));
  (* The daemon state survives: the same batch again is served, and the
     good item now comes from the cache. *)
  let _, fresh2, cached2, errors2 =
    results_of
      (Server.handle t (Proto.Run [ item ~id:4 (Proto.Workload "saxpy") ]))
  in
  Alcotest.(check int) "no fresh work" 0 fresh2;
  Alcotest.(check int) "cache answers" 1 cached2;
  Alcotest.(check int) "no errors" 0 errors2

(* --- batch dedup ----------------------------------------------------- *)

let test_batch_dedup () =
  let t = Server.create () in
  let rs, fresh, cached, errors =
    results_of
      (Server.handle t
         (Proto.Run
            [ item ~id:0 (Proto.Workload "saxpy");
              item_with_jobs ~id:1 "saxpy";
              item ~id:2 ~deadline_ms:60_000 (Proto.Workload "saxpy") ]))
  in
  Alcotest.(check int) "one simulation" 1 fresh;
  Alcotest.(check int) "two dedup answers" 2 cached;
  Alcotest.(check int) "no errors" 0 errors;
  (* an ignored "jobs" and a deadline are not part of the key, so all
     three reports are the same bytes. *)
  let a = report_string (outcome rs 0) in
  Alcotest.(check string) "dup report identical" a
    (report_string (outcome rs 1));
  Alcotest.(check string) "deadline variant identical" a
    (report_string (outcome rs 2));
  (* An expired deadline on one copy must not fail an unconstrained
     copy of the same key: the least-constrained item is the
     representative, and the constrained dup answers from its result. *)
  let t2 = Server.create () in
  let _, fresh, cached, errors =
    results_of
      (Server.handle t2
         (Proto.Run
            [ item ~id:0 ~deadline_ms:0 (Proto.Workload "gemm");
              item ~id:1 (Proto.Workload "gemm") ]))
  in
  Alcotest.(check int) "unconstrained copy evaluated" 1 fresh;
  Alcotest.(check int) "constrained copy answered" 1 cached;
  Alcotest.(check int) "nobody failed" 0 errors;
  (* When every copy is past its deadline, the error replays to dups. *)
  let rs, _, _, errors =
    results_of
      (Server.handle t2
         (Proto.Run
            [ item ~id:0 ~deadline_ms:0 (Proto.Workload "conv1d");
              item ~id:1 ~deadline_ms:0 (Proto.Workload "conv1d") ]))
  in
  Alcotest.(check int) "both expired" 2 errors;
  Alcotest.(check string) "rep deadline" "deadline" (err_code (outcome rs 0));
  Alcotest.(check string) "dup deadline" "deadline" (err_code (outcome rs 1))

(* --- persistence and byte-identity across restarts ------------------- *)

let suite_items () =
  [ item ~id:0 (Proto.Workload "saxpy");
    item ~id:1 ~stack:"loop-stack" (Proto.Workload "saxpy");
    item ~id:2 ~stack:"cilk-stack" ~tiles:2 (Proto.Workload "fib");
    item ~id:3
      (Proto.Inline
         { name = "tiny";
           text =
             {|
global float X[8]; global float Y[8];
func void main() {
  parallel_for (int i = 0; i < 8; i = i + 1) { Y[i] = 2.0 * X[i]; }
  sync;
}|} }) ]

let test_restart_byte_identity () =
  let dir = fresh_dir () in
  let t1 = Server.create ~cache_dir:dir () in
  let rs1, fresh1, _, errors1 =
    results_of (Server.handle t1 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "cold round all fresh" 4 fresh1;
  Alcotest.(check int) "cold round clean" 0 errors1;
  (* A brand-new daemon on the same directory: zero fresh simulations,
     byte-identical reports. *)
  let t2 = Server.create ~cache_dir:dir () in
  let rs2, fresh2, cached2, errors2 =
    results_of (Server.handle t2 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "warm round zero fresh" 0 fresh2;
  Alcotest.(check int) "warm round all cached" 4 cached2;
  Alcotest.(check int) "warm round clean" 0 errors2;
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Fmt.str "report %d byte-identical" i)
        (report_string (outcome rs1 i))
        (report_string (outcome rs2 i)))
    [ 0; 1; 2; 3 ]

let test_cache_corruption_recovery () =
  let dir = fresh_dir () in
  let t1 = Server.create ~cache_dir:dir () in
  let _ = Server.handle t1 (Proto.Run (suite_items ())) in
  let entries = Sys.readdir dir in
  Alcotest.(check int) "four entries on disk" 4 (Array.length entries);
  (* Corrupt one entry (flip a payload byte) and truncate another. *)
  let path i = Filename.concat dir entries.(i) in
  let read p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let write p s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc
  in
  let s0 = read (path 0) in
  let flipped = Bytes.of_string s0 in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last
    (Char.chr (Char.code (Bytes.get flipped last) lxor 0xff));
  write (path 0) (Bytes.to_string flipped);
  let s1 = read (path 1) in
  write (path 1) (String.sub s1 0 (String.length s1 / 2));
  (* A fresh daemon detects both, discards them, and keeps serving. *)
  let t2 = Server.create ~cache_dir:dir () in
  (match Server.handle t2 Proto.Stats with
  | Proto.Stats_r s ->
    Alcotest.(check int) "corrupt entries counted" 2 s.st_cache_corrupt;
    Alcotest.(check int) "survivors loaded" 2 s.st_cache_entries
  | _ -> Alcotest.fail "expected stats");
  Alcotest.(check bool) "corrupt files removed" true
    (Array.length (Sys.readdir dir) = 2);
  let _, fresh, cached, errors =
    results_of (Server.handle t2 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "two re-simulated" 2 fresh;
  Alcotest.(check int) "two from surviving entries" 2 cached;
  Alcotest.(check int) "no errors" 0 errors;
  (* The rebuilt store is whole again. *)
  let t3 = Server.create ~cache_dir:dir () in
  let _, fresh3, _, _ =
    results_of (Server.handle t3 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "rebuilt store answers everything" 0 fresh3

(* --- telemetry: the metrics op and the observation invariant --------- *)

module Prom = Muir_obs.Prom
module Obs = Muir_obs.Obs

let scrape (t : Server.t) : Prom.parsed =
  match Server.handle t Proto.Metrics with
  | Proto.Metrics_r text -> Prom.parse text
  | _ -> Alcotest.fail "expected a metrics response"

let sample p name = Prom.find_sample p ~name ()

let item_hist p cached =
  match
    Prom.find_histogram p ~name:"muir_serve_item_seconds"
      ~labels:[ ("cached", cached) ] ()
  with
  | Some hd -> hd
  | None -> Alcotest.fail ("no item histogram for cached=" ^ cached)

let test_metrics_op () =
  let obs = Obs.create ~clock:(fun () -> 42.0) () in
  let t = Server.create ~obs () in
  (* A scrape before any traffic already exposes every family, at
     zero, and parses strictly. *)
  let p0 = scrape t in
  Alcotest.(check (option (float 1e-9))) "items start at zero" (Some 0.0)
    (sample p0 "muir_serve_items_total");
  Alcotest.(check (option string)) "errors family pre-registered"
    (Some "counter")
    (List.assoc_opt "muir_serve_errors_total" p0.Prom.p_types);
  (* One batch: a fresh evaluation, an in-batch duplicate, a failure. *)
  let batch =
    Proto.Run
      [ item ~id:0 (Proto.Workload "saxpy");
        item ~id:1 (Proto.Workload "saxpy");
        item ~id:2 (Proto.Workload "no-such-workload") ]
  in
  let _, fresh, cached, errors = results_of (Server.handle t batch) in
  Alcotest.(check int) "one fresh" 1 fresh;
  Alcotest.(check int) "one dup" 1 cached;
  Alcotest.(check int) "one error" 1 errors;
  let p = scrape t in
  Alcotest.(check (option (float 1e-9))) "requests" (Some 1.0)
    (sample p "muir_serve_requests_total");
  Alcotest.(check (option (float 1e-9))) "items" (Some 3.0)
    (sample p "muir_serve_items_total");
  Alcotest.(check (option (float 1e-9))) "ok" (Some 2.0)
    (sample p "muir_serve_ok_total");
  Alcotest.(check (option (float 1e-9))) "error coded" (Some 1.0)
    (Prom.find_sample p ~name:"muir_serve_errors_total"
       ~labels:[ ("code", "bad_request") ] ());
  (* The invariant the CI smoke reconciles: exactly one latency
     observation per item, split fresh/cached, totalling ok+errors.
     The failed item counts as fresh (it was not answered from
     cache). *)
  let hf = item_hist p "false" and hc = item_hist p "true" in
  Alcotest.(check int) "fresh observations" 2 hf.Prom.hd_count;
  Alcotest.(check int) "cached observations" 1 hc.Prom.hd_count;
  Alcotest.(check int) "observations = ok + errors" 3
    (hf.Prom.hd_count + hc.Prom.hd_count);
  (* A second identical batch: everything answers from the cache or
     fails again; the invariant holds cumulatively. *)
  let _ = Server.handle t batch in
  let p2 = scrape t in
  let hf2 = item_hist p2 "false" and hc2 = item_hist p2 "true" in
  Alcotest.(check int) "cumulative observations" 6
    (hf2.Prom.hd_count + hc2.Prom.hd_count);
  Alcotest.(check int) "round 2 hits are cached" 3 hc2.Prom.hd_count;
  (* Per-stage histograms saw exactly the one fresh evaluation. *)
  (match
     Prom.find_histogram p2 ~name:"muir_serve_stage_seconds"
       ~labels:[ ("stage", "simulate") ] ()
   with
  | Some hd -> Alcotest.(check int) "one simulation staged" 1 hd.Prom.hd_count
  | None -> Alcotest.fail "no simulate stage histogram");
  (* The fixed clock pins the time-derived series. *)
  Alcotest.(check (option (float 1e-9))) "uptime from injected clock"
    (Some 0.0)
    (sample p2 "muir_serve_uptime_seconds")

let test_rcache_disk_bytes () =
  let dir = fresh_dir () in
  let t1 = Server.create ~cache_dir:dir () in
  let _ = Server.handle t1 (Proto.Run (suite_items ())) in
  let on_disk () =
    Array.fold_left
      (fun acc f ->
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  let disk_bytes t =
    match Server.handle t Proto.Stats with
    | Proto.Stats_r s -> s.Proto.st_cache_disk_bytes
    | _ -> Alcotest.fail "expected stats"
  in
  Alcotest.(check bool) "entries written" true (on_disk () > 0);
  Alcotest.(check int) "gauge matches the files" (on_disk ())
    (disk_bytes t1);
  (* A fresh daemon re-derives the same total from the load scan. *)
  let t2 = Server.create ~cache_dir:dir () in
  Alcotest.(check int) "restart re-derives the total" (on_disk ())
    (disk_bytes t2);
  (* A memory-only daemon reports zero. *)
  Alcotest.(check int) "memory-only is zero" 0
    (disk_bytes (Server.create ()));
  (* ... and the metrics op exposes the same number. *)
  let p = scrape t2 in
  Alcotest.(check (option (float 1e-9))) "gauge in the exposition"
    (Some (float_of_int (on_disk ())))
    (Prom.find_sample p ~name:"muir_serve_rcache_disk_bytes" ())

(* --- pipeline equivalence -------------------------------------------- *)

let test_pipeline_matches_direct () =
  let w = W.find "saxpy" in
  let passes = Muir_opt.Stacks.loop_stack () in
  (* Direct toolchain calls, as the CLI made them before the port. *)
  let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
  let _ = Muir_opt.Pass.run_all passes c in
  let direct = Muir_sim.Sim.run c in
  (* The staged pipeline. *)
  let b =
    Pipeline.build
      ~passes:(Muir_opt.Stacks.loop_stack ())
      (Pipeline.of_workload w)
  in
  let piped = Pipeline.simulate b in
  Alcotest.(check int) "identical cycles"
    direct.Muir_sim.Sim.stats.total_cycles
    piped.Muir_sim.Sim.stats.total_cycles;
  Alcotest.(check int) "identical fires" direct.Muir_sim.Sim.stats.fires
    piped.Muir_sim.Sim.stats.fires;
  Alcotest.(check string) "circuit named after the workload" w.wname
    b.p_circuit.cname

let test_pipeline_ctl () =
  let ctl = Pipeline.ctl () in
  let b =
    Pipeline.build ~ctl ~passes:(Muir_opt.Stacks.loop_stack ())
      (Pipeline.of_workload_name "saxpy")
  in
  let _ = Pipeline.model ~ctl b in
  let _ = Pipeline.simulate ~ctl b in
  List.iter
    (fun st ->
      Alcotest.(check int)
        (Pipeline.stage_name st ^ " ran once")
        1
        ctl.stage_counts.(Pipeline.stage_index st);
      Alcotest.(check bool)
        (Pipeline.stage_name st ^ " time accounted")
        true
        (Pipeline.seconds ctl st >= 0.0))
    Pipeline.stages;
  (* An already-expired deadline fails at the first boundary, naming
     the stage that was about to run. *)
  let expired = Pipeline.ctl ~deadline:(Unix.gettimeofday () -. 1.0) () in
  match
    Pipeline.build ~ctl:expired (Pipeline.of_workload_name "saxpy")
  with
  | _ -> Alcotest.fail "expired deadline did not raise"
  | exception Pipeline.Deadline st ->
    Alcotest.(check string) "first stage blamed" "compile"
      (Pipeline.stage_name st)

(* --- end-to-end over the socket -------------------------------------- *)

let test_socket_end_to_end () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "muir-serve-e2e-%d.sock" (Unix.getpid ()))
  in
  let t = Server.create ~jobs:2 ~queue_cap:3 () in
  (* A small frame cap keeps the oversize probe below the socket-buffer
     size, so the whole frame is written before the server answers. *)
  let d =
    Domain.spawn (fun () -> Server.serve ~max_frame:4096 ~socket t)
  in
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "daemon socket never appeared"
    else begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 100;
  (* Round 1: mixed batch. *)
  let batch =
    Proto.Run
      [ item ~id:0 (Proto.Workload "saxpy");
        item ~id:1 ~stack:"loop-stack" (Proto.Workload "saxpy");
        item ~id:2 (Proto.Workload "no-such-workload") ]
  in
  let rs1, fresh1, _, errors1 =
    Client.with_connection socket (fun fd ->
        results_of (Client.rpc fd batch))
  in
  Alcotest.(check int) "round 1 fresh" 2 fresh1;
  Alcotest.(check int) "round 1 errors" 1 errors1;
  (* Round 2: identical batch, zero fresh work, identical reports. *)
  let rs2, fresh2, cached2, _ =
    Client.with_connection socket (fun fd ->
        results_of (Client.rpc fd batch))
  in
  Alcotest.(check int) "round 2 zero fresh" 0 fresh2;
  Alcotest.(check int) "round 2 cached" 2 cached2;
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Fmt.str "socket report %d identical" i)
        (report_string (outcome rs1 i))
        (report_string (outcome rs2 i)))
    [ 0; 1 ];
  (* Overload: a batch larger than the admission cap is rejected with a
     structured error, and the daemon keeps serving. *)
  let big =
    Proto.Run
      (List.init 4 (fun i -> item ~id:i (Proto.Workload "saxpy")))
  in
  (match
     Client.with_connection socket (fun fd -> Client.rpc fd big)
   with
  | Proto.Error_r { code; _ } ->
    Alcotest.(check string) "overloaded" "overloaded" code
  | _ -> Alcotest.fail "oversized batch admitted");
  (* Malformed JSON over the wire: structured rejection. *)
  Client.with_connection socket (fun fd ->
      Proto.write_frame fd "this is not json";
      match Proto.read_frame fd with
      | Some payload -> (
        match Proto.response_of_string payload with
        | Proto.Error_r { code; _ } ->
          Alcotest.(check string) "wire bad_request" "bad_request" code
        | _ -> Alcotest.fail "garbage frame not rejected")
      | None -> Alcotest.fail "no response to garbage frame");
  (* Oversize frame: structured rejection, connection closed. *)
  Client.with_connection socket (fun fd ->
      Proto.write_frame fd (String.make 5000 'x');
      match Proto.read_frame fd with
      | Some payload -> (
        match Proto.response_of_string payload with
        | Proto.Error_r { code; _ } ->
          Alcotest.(check string) "wire oversize" "oversize" code
        | _ -> Alcotest.fail "oversize frame not rejected")
      | None -> Alcotest.fail "no response to oversize frame");
  (* Still serving after all that; stats reflect the history. *)
  (match
     Client.with_connection socket (fun fd -> Client.rpc fd Proto.Stats)
   with
  | Proto.Stats_r s ->
    Alcotest.(check bool) "uptime sane" true (s.st_uptime_s >= 0.0);
    Alcotest.(check int) "fresh so far" 2 s.st_fresh;
    Alcotest.(check bool) "simulate stage counted" true
      (List.exists
         (fun (g : Proto.stage_stat) ->
           g.tg_stage = "simulate" && g.tg_count = 2)
         s.st_stages)
  | _ -> Alcotest.fail "expected stats");
  (* Graceful shutdown: Bye, then a clean drain summary. *)
  (match
     Client.with_connection socket (fun fd -> Client.rpc fd Proto.Shutdown)
   with
  | Proto.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  let s = Domain.join d in
  Alcotest.(check int) "drain saw every request" 2 s.Server.dr_requests;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

(* --- registration ---------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [ ( "proto",
        [ Alcotest.test_case "request round trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_malformed_requests;
          Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncated frames rejected" `Quick
            test_truncated_frames;
          Alcotest.test_case "oversize frame rejected" `Quick
            test_oversize_frame ] );
      ( "server",
        [ Alcotest.test_case "malformed payload contained" `Quick
            test_handle_malformed;
          Alcotest.test_case "item errors contained" `Quick
            test_item_errors_contained;
          Alcotest.test_case "in-batch dedup" `Quick test_batch_dedup;
          Alcotest.test_case "metrics op reconciles" `Quick
            test_metrics_op ] );
      ( "cache",
        [ Alcotest.test_case "restart byte-identity" `Quick
            test_restart_byte_identity;
          Alcotest.test_case "corruption detected and rebuilt" `Quick
            test_cache_corruption_recovery;
          Alcotest.test_case "disk bytes accounted" `Quick
            test_rcache_disk_bytes ] );
      ( "pipeline",
        [ Alcotest.test_case "matches direct toolchain" `Quick
            test_pipeline_matches_direct;
          Alcotest.test_case "stage control" `Quick test_pipeline_ctl ] );
      ( "socket",
        [ Alcotest.test_case "end to end" `Quick test_socket_end_to_end ] )
    ]
