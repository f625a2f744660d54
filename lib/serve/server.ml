(** The compile-and-simulate daemon.

    A {!t} owns the persistent result cache ({!Rcache}), an admission
    queue, the counters behind the [stats] request, and a
    {!Muir_obs.Obs.t} telemetry handle.  {!handle} is the whole request
    semantics as a pure-ish function — the socket loop ({!serve}), the
    drain path and the tests all go through it — and {!serve} is a
    select-based single-threaded loop that owns the Unix-domain socket:
    it accepts connections, reads length-prefixed frames ({!Proto}),
    answers [stats]/[metrics]/[shutdown] inline, admits [run] requests
    against the queue bound, and processes one queued request per
    iteration.

    {2 Evaluation}

    A batch's items are resolved to content keys
    ([muir-serve-v1|<source-digest>|<Config.key>] — see {!item_key}),
    deduplicated, answered from the cache where possible, and the
    remaining unique keys fanned out over the OCaml-5 domain pool
    ({!Muir_dse.Pool}) through the staged {!Muir_pipeline.Pipeline}.
    Fresh results are folded into the cache by the coordinating domain
    only, so cache traffic is race-free by construction (the same
    discipline as the explorer).  Because run reports are
    deterministic, a cached answer is byte-identical to the fresh one
    it replays.

    {2 Telemetry}

    Every counter, gauge and histogram lives in the handle's registry
    under the [muir_serve_*] naming convention and is updated by the
    coordinating domain only, with the handle's (injectable) clock —
    so two runs over the same batch with a fixed clock render
    byte-identical Prometheus expositions, and none of the existing
    response payloads change shape or bytes.  Per item the daemon
    makes {e exactly one} latency observation — into
    [muir_serve_item_seconds{cached="true"}] for cache hits and
    batch-local duplicates, [{cached="false"}] for fresh evaluations
    and failed items — so the two histograms' total count always
    equals [ok + errors] from the [stats] op.  Each fresh evaluation
    additionally records its per-stage seconds into
    [muir_serve_stage_seconds{stage=...}] and pushes a span into the
    handle's ring for Chrome-trace export.

    {2 Failure containment}

    Everything that can go wrong inside an item — unknown workload or
    stack, a front-end error in inline source, a deadline expiring at
    a stage boundary, a simulator deadlock — becomes a structured
    per-item error in the response.  Nothing an item does terminates
    the daemon. *)

module Config = Muir_dse.Config
module Pipeline = Muir_pipeline.Pipeline
module W = Muir_workloads.Workloads
module Ob = Muir_obs.Obs
module M = Muir_obs.Metrics
module Olog = Muir_obs.Log
module Span = Muir_obs.Span
module J = Muir_trace.Json

(** The daemon's registered metric handles; one instance per {!t},
    created against the handle's registry so the exposition is stable
    from the first scrape (every family exists even at zero). *)
type mx = {
  x_requests : M.counter;
  x_items : M.counter;
  x_ok : M.counter;
  x_fresh : M.counter;
  x_cached : M.counter;
  x_queue_depth : M.gauge;
  x_uptime : M.gauge;
  x_draining : M.gauge;
  x_cache_hits : M.counter;
  x_cache_misses : M.counter;
  x_cache_corrupt : M.counter;
  x_cache_entries : M.gauge;
  x_disk_bytes : M.gauge;
  x_item_fresh : M.hist;
  x_item_cached : M.hist;
  x_stage : M.hist array;  (** indexed by {!Pipeline.stage_index} *)
}

type t = {
  sv_rcache : Rcache.t;
  sv_jobs : int;            (** evaluation domains per batch *)
  sv_queue_cap : int;       (** max queued items across requests *)
  sv_started : float;
  sv_queue : pending Queue.t;
  sv_stop : bool Atomic.t;  (** drain requested (signal or shutdown op) *)
  sv_obs : Ob.t;
  sv_mx : mx;
  mutable sv_requests : int;
  mutable sv_items : int;
  mutable sv_ok : int;
  mutable sv_errors : int;
  mutable sv_fresh : int;
  mutable sv_cached : int;
  sv_stage_seconds : float array;
  sv_stage_counts : int array;
}

and pending = {
  pd_fd : Unix.file_descr;
  pd_items : Proto.item list;
  pd_admitted : float;
}

let errors_help = "Per-item errors by taxonomy code."
let rejects_help = "Request-level rejections by reason."

let make_mx (obs : Ob.t) : mx =
  let r = obs.Ob.o_metrics in
  (* Pre-register the labelled families too, so a scrape before the
     first error still exposes their TYPE lines. *)
  ignore (M.family r ~kind:M.Counter ~help:errors_help ~bounds:[||]
            "muir_serve_errors_total");
  ignore (M.family r ~kind:M.Counter ~help:rejects_help ~bounds:[||]
            "muir_serve_rejects_total");
  { x_requests =
      M.counter r ~help:"Run requests processed." "muir_serve_requests_total";
    x_items = M.counter r ~help:"Items received." "muir_serve_items_total";
    x_ok = M.counter r ~help:"Items answered ok." "muir_serve_ok_total";
    x_fresh =
      M.counter r ~help:"Items answered by fresh evaluation."
        "muir_serve_fresh_total";
    x_cached =
      M.counter r ~help:"Items answered from the result cache."
        "muir_serve_cached_total";
    x_queue_depth =
      M.gauge r ~help:"Items in the admission queue."
        "muir_serve_queue_depth";
    x_uptime =
      M.gauge r ~help:"Whole seconds since daemon start."
        "muir_serve_uptime_seconds";
    x_draining =
      M.gauge r ~help:"1 while draining, else 0." "muir_serve_draining";
    x_cache_hits =
      M.counter r ~help:"Result-cache hits." "muir_serve_cache_hits_total";
    x_cache_misses =
      M.counter r ~help:"Result-cache misses (fresh payloads recorded)."
        "muir_serve_cache_misses_total";
    x_cache_corrupt =
      M.counter r ~help:"Cache entries discarded as corrupt at load."
        "muir_serve_cache_corrupt_total";
    x_cache_entries =
      M.gauge r ~help:"Live result-cache entries." "muir_serve_cache_entries";
    x_disk_bytes =
      M.gauge r ~help:"On-disk bytes of live cache entries."
        "muir_serve_rcache_disk_bytes";
    x_item_fresh =
      M.histogram r ~help:"Per-item service latency."
        ~labels:[ ("cached", "false") ] "muir_serve_item_seconds";
    x_item_cached =
      M.histogram r ~help:"Per-item service latency."
        ~labels:[ ("cached", "true") ] "muir_serve_item_seconds";
    x_stage =
      Array.of_list
        (List.map
           (fun st ->
             M.histogram r ~help:"Per-stage seconds of fresh evaluations."
               ~labels:[ ("stage", Pipeline.stage_name st) ]
               "muir_serve_stage_seconds")
           Pipeline.stages) }

let err_counter (t : t) (code : string) : M.counter =
  M.counter t.sv_obs.Ob.o_metrics ~help:errors_help
    ~labels:[ ("code", code) ] "muir_serve_errors_total"

let reject_counter (t : t) (code : string) : M.counter =
  M.counter t.sv_obs.Ob.o_metrics ~help:rejects_help
    ~labels:[ ("code", code) ] "muir_serve_rejects_total"

let create ?cache_dir ?(jobs = 1) ?(queue_cap = 256) ?obs () : t =
  let obs = match obs with Some o -> o | None -> Ob.create () in
  { sv_rcache = Rcache.create ?dir:cache_dir ();
    sv_jobs = max 1 jobs;
    sv_queue_cap = queue_cap;
    sv_started = Ob.now obs;
    sv_queue = Queue.create ();
    sv_stop = Atomic.make false;
    sv_obs = obs;
    sv_mx = make_mx obs;
    sv_requests = 0; sv_items = 0; sv_ok = 0; sv_errors = 0;
    sv_fresh = 0; sv_cached = 0;
    sv_stage_seconds = Array.make Pipeline.nstages 0.0;
    sv_stage_counts = Array.make Pipeline.nstages 0 }

(** Ask the serve loop to stop accepting work and drain what it has.
    Safe to call from a signal handler. *)
let request_drain (t : t) : unit = Atomic.set t.sv_stop true

let queue_depth (t : t) : int =
  Queue.fold (fun n p -> n + List.length p.pd_items) 0 t.sv_queue

(* ------------------------------------------------------------------ *)
(* Content keys                                                        *)

(** The cache key of one item: a protocol-versioned digest of the
    {e source} (workload text or inline text — so editing a bundled
    workload invalidates its entries) crossed with the configuration's
    content key.  [deadline_ms] is deliberately excluded: a deadline
    changes when an answer arrives, never what it is. *)
let item_key (src : Proto.src) (cfg : Config.t) : string =
  let sd =
    match src with
    | Proto.Workload name ->
      let w = W.find name in
      Fmt.str "workload:%s:%s" name (Digest.to_hex (Digest.string w.source))
    | Proto.Inline { name; text } ->
      Fmt.str "inline:%s"
        (Digest.to_hex (Digest.string (name ^ "\x00" ^ text)))
  in
  Fmt.str "muir-serve-v1|%s|%s" sd (Config.key cfg)

(** The μopt configuration an item denotes: its stack's registry
    defaults, overridden by any explicit knobs.
    @raise Invalid_argument for unknown stacks *)
let item_config (it : Proto.item) : Config.t =
  let base = Config.predefined it.it_stack in
  Config.v
    ~tiles:(Option.value ~default:base.tiles it.it_tiles)
    ~banks:(Option.value ~default:base.banks it.it_banks)
    ~off:it.it_off it.it_stack

(** Display label of an item: what its span and log records carry. *)
let item_label (it : Proto.item) : string =
  let src =
    match it.it_src with
    | Proto.Workload w -> w
    | Proto.Inline { name; _ } -> name
  in
  src ^ "/" ^ it.it_stack

(* ------------------------------------------------------------------ *)
(* Item evaluation (worker side)                                       *)

type outcome =
  | Payload of string                          (** report JSON *)
  | Failed of string * string option * string  (** code, stage, msg *)

(** One worker-side evaluation: the full six-stage pipeline, every
    failure mode folded into a structured {!outcome}.  The stage
    timing arrays ride back for the coordinator to merge. *)
type wres = {
  w_out : outcome;
  w_secs : float array;
  w_counts : int array;
}

let eval_item ?(now = Unix.gettimeofday) ~(deadline : float option)
    (it : Proto.item) (cfg : Config.t) : wres =
  let ctl = Pipeline.ctl ?deadline ~now () in
  let out =
    try
      let src =
        match it.it_src with
        | Proto.Workload name -> Pipeline.of_workload_name name
        | Proto.Inline { name; text } -> Pipeline.of_text ~name text
      in
      let b = Pipeline.build ~ctl ~passes:(Config.passes cfg) src in
      let m = Pipeline.model ~ctl b in
      let r = Pipeline.simulate ~ctl b in
      let spec = Config.spec cfg in
      let knobs =
        (if spec.sp_uses_tiles then [ ("tiles", cfg.tiles) ] else [])
        @ if spec.sp_uses_banks then [ ("banks", cfg.banks) ] else []
      in
      let mem =
        List.map
          (fun (s : Muir_sim.Memsys.struct_stats) ->
            { Muir_trace.Report.m_name = s.ss_name;
              m_accesses = s.ss_accesses; m_hits = s.ss_hits;
              m_misses = s.ss_misses; m_conflicts = s.ss_conflicts })
          r.stats.mem
      in
      let fp = m.m_fpga and ac = m.m_asic in
      let rep =
        Muir_trace.Report.make ~workload:b.p_circuit.cname
          ~stack:(Config.label cfg) ~knobs ~mem
          ~fpga:
            { Muir_trace.Report.f_mhz = fp.fr_mhz; f_alms = fp.fr_alms;
              f_regs = fp.fr_regs; f_dsps = fp.fr_dsps;
              f_brams = fp.fr_brams }
          ~asic:{ Muir_trace.Report.a_ghz = ac.ar_ghz; a_area = ac.ar_area }
          ~total_cycles:r.stats.total_cycles b.p_circuit r.counters
      in
      Payload (Muir_trace.Report.to_json rep)
    with
    | Pipeline.Deadline st ->
      Failed
        ( "deadline", Some (Pipeline.stage_name st),
          Fmt.str "deadline expired before the %s stage"
            (Pipeline.stage_name st) )
    | Muir_sim.Sim.Deadlock m -> Failed ("deadlock", Some "simulate", m)
    | Muir_sim.Sim.Cycle_limit n ->
      Failed
        ("cycle_limit", Some "simulate", Fmt.str "no progress by cycle %d" n)
    | Invalid_argument m -> Failed ("bad_request", None, m)
    | e -> (
      match Muir_frontend.Frontend.describe_error e with
      | Some m -> Failed ("compile_error", Some "compile", m)
      | None -> Failed ("internal", None, Printexc.to_string e))
  in
  { w_out = out; w_secs = ctl.stage_seconds; w_counts = ctl.stage_counts }

(* ------------------------------------------------------------------ *)
(* Batch processing (coordinator side)                                 *)

type resolved =
  | Ready of { rv_key : string; rv_cfg : Config.t }
  | Unresolvable of string  (** message; code is always bad_request *)

let resolve (it : Proto.item) : resolved =
  match
    let cfg = item_config it in
    (item_key it.it_src cfg, cfg)
  with
  | key, cfg -> Ready { rv_key = key; rv_cfg = cfg }
  | exception Invalid_argument m -> Unresolvable m

(** Exactly one latency observation per item (see the module header):
    the invariant the CI smoke reconciles against [stats]. *)
let observe_item (t : t) ~(cached : bool) (secs : float) : unit =
  M.observe
    (if cached then t.sv_mx.x_item_cached else t.sv_mx.x_item_fresh)
    secs

(** Process one admitted [run] request: dedupe by key, answer from the
    cache, evaluate the remaining unique keys on the pool, fold fresh
    results (and stage timings) back, and assemble per-item results in
    request order. *)
let run_items ~(now : float) (t : t) (items : Proto.item list) :
    Proto.response =
  let clock () = Ob.now t.sv_obs in
  let req_id = Ob.span_id t.sv_obs in
  t.sv_requests <- t.sv_requests + 1;
  t.sv_items <- t.sv_items + List.length items;
  M.inc t.sv_mx.x_requests;
  M.add t.sv_mx.x_items (List.length items);
  Olog.event t.sv_obs.Ob.o_log "request"
    [ ("req", J.Int req_id); ("items", J.Int (List.length items)) ];
  let resolved = List.map (fun it -> (it, resolve it)) items in
  (* First pass: probe the cache, timing each probe on the obs clock. *)
  let probed =
    List.map
      (fun (it, rv) ->
        let t0 = clock () in
        let what =
          match rv with
          | Unresolvable m -> `Bad m
          | Ready { rv_key = key; rv_cfg = cfg } -> (
            match Rcache.find t.sv_rcache key with
            | Some payload -> `Hit (key, payload)
            | None -> `Miss (key, cfg))
        in
        (it, what, clock () -. t0))
      resolved
  in
  (* Each uncached key gets exactly one evaluation; the other items with
     that key answer from its result. The representative must be the
     least deadline-constrained item of the group — a dup replays the
     representative's outcome, so an aggressive deadline on one copy
     must not fail the unconstrained copies. *)
  let reps : (string, Proto.item) Hashtbl.t = Hashtbl.create 16 in
  let looser a b =
    match (a, b) with
    | None, _ -> true
    | _, None -> false
    | Some x, Some y -> x > y
  in
  List.iter
    (fun ((it : Proto.item), what, _) ->
      match what with
      | `Miss (key, _) -> (
        match Hashtbl.find_opt reps key with
        | Some (prev : Proto.item)
          when not (looser it.it_deadline_ms prev.it_deadline_ms) ->
          ()
        | _ -> Hashtbl.replace reps key it)
      | _ -> ())
    probed;
  let plan =
    List.map
      (fun ((it : Proto.item), what, dt) ->
        match what with
        | (`Bad _ | `Hit _) as w -> (it, w, dt)
        | `Miss (key, cfg) ->
          if Hashtbl.find reps key == it then (it, `Fresh (key, cfg), dt)
          else (it, `Dup key, dt))
      probed
  in
  let fresh =
    List.filter_map
      (function
        | it, `Fresh (key, cfg), _ ->
          let deadline =
            Option.map
              (fun ms -> now +. (float_of_int ms /. 1000.0))
              it.Proto.it_deadline_ms
          in
          Some (key, it, cfg, deadline)
        | _ -> None)
      plan
  in
  let eval_started = clock () in
  let results =
    Muir_dse.Pool.map ~jobs:t.sv_jobs
      (fun (_, it, cfg, deadline) -> eval_item ~now:clock ~deadline it cfg)
      fresh
  in
  (* Fold fresh results into the cache, the per-stage counters, the
     stage histograms and the span ring — coordinator only, same
     discipline as the explorer's memo table. *)
  let by_key = Hashtbl.create 16 in
  List.iter2
    (fun (key, it, _, _) (w : wres) ->
      Array.iteri
        (fun i s -> t.sv_stage_seconds.(i) <- t.sv_stage_seconds.(i) +. s)
        w.w_secs;
      Array.iteri
        (fun i n -> t.sv_stage_counts.(i) <- t.sv_stage_counts.(i) + n)
        w.w_counts;
      let stages =
        List.filter_map
          (fun st ->
            let i = Pipeline.stage_index st in
            if w.w_counts.(i) > 0 then begin
              M.observe t.sv_mx.x_stage.(i) w.w_secs.(i);
              Some (Pipeline.stage_name st, w.w_secs.(i))
            end
            else None)
          Pipeline.stages
      in
      let segs, dur = Span.layout stages in
      Span.push t.sv_obs.Ob.o_spans
        { Span.sp_id = Ob.span_id t.sv_obs; sp_name = item_label it;
          sp_cat = "serve.item"; sp_start = eval_started; sp_dur = dur;
          sp_segs = segs };
      (match w.w_out with
      | Payload p -> Rcache.add t.sv_rcache key p
      | Failed _ -> ());
      Hashtbl.replace by_key key (w.w_out, dur))
    fresh results;
  (* Second pass: per-item results in request order. *)
  let fresh_n = ref 0 and cached_n = ref 0 and err_n = ref 0 in
  let ok ~cached payload =
    t.sv_ok <- t.sv_ok + 1;
    M.inc t.sv_mx.x_ok;
    M.inc (if cached then t.sv_mx.x_cached else t.sv_mx.x_fresh);
    incr (if cached then cached_n else fresh_n);
    Proto.Ok_ { cached; report = Muir_trace.Json.parse payload }
  in
  let err code stage msg =
    t.sv_errors <- t.sv_errors + 1;
    M.inc (err_counter t code);
    incr err_n;
    Proto.Err { code; stage; msg }
  in
  let log_item (it : Proto.item) ~status ~cached ~secs extra =
    Olog.event t.sv_obs.Ob.o_log "evaluate"
      ([ ("req", J.Int req_id); ("id", J.Int it.Proto.it_id);
         ("item", J.Str (item_label it)); ("status", J.Str status);
         ("cached", J.Bool cached); ("secs", J.Float secs) ]
      @ extra)
  in
  let rs =
    List.map
      (fun ((it : Proto.item), what, probe_dt) ->
        let outcome =
          match what with
          | `Bad m ->
            observe_item t ~cached:false probe_dt;
            log_item it ~status:"error" ~cached:false ~secs:probe_dt
              [ ("code", J.Str "bad_request") ];
            err "bad_request" None m
          | `Hit (_, payload) ->
            observe_item t ~cached:true probe_dt;
            log_item it ~status:"ok" ~cached:true ~secs:probe_dt [];
            ok ~cached:true payload
          | `Fresh (key, _) -> (
            let out, dur = Hashtbl.find by_key key in
            let secs = probe_dt +. dur in
            observe_item t ~cached:false secs;
            match out with
            | Payload p ->
              log_item it ~status:"ok" ~cached:false ~secs [];
              ok ~cached:false p
            | Failed (code, stage, msg) ->
              log_item it ~status:"error" ~cached:false ~secs
                [ ("code", J.Str code) ];
              err code stage msg)
          | `Dup key -> (
            (* The representative ran in this very batch; replay it
               through the cache so the hit is counted. *)
            let t0 = clock () in
            let hit = Rcache.find t.sv_rcache key in
            let secs = probe_dt +. (clock () -. t0) in
            match hit with
            | Some payload ->
              observe_item t ~cached:true secs;
              log_item it ~status:"ok" ~cached:true ~secs [];
              ok ~cached:true payload
            | None -> (
              match Hashtbl.find by_key key with
              | Failed (code, stage, msg), _ ->
                observe_item t ~cached:true secs;
                log_item it ~status:"error" ~cached:true ~secs
                  [ ("code", J.Str code) ];
                err code stage msg
              | Payload p, _ ->
                observe_item t ~cached:true secs;
                log_item it ~status:"ok" ~cached:true ~secs [];
                ok ~cached:true p))
        in
        { Proto.rs_id = it.it_id; rs_outcome = outcome })
      plan
  in
  t.sv_fresh <- t.sv_fresh + !fresh_n;
  t.sv_cached <- t.sv_cached + !cached_n;
  Olog.event t.sv_obs.Ob.o_log "respond"
    [ ("req", J.Int req_id); ("ok", J.Int (!fresh_n + !cached_n));
      ("fresh", J.Int !fresh_n); ("cached", J.Int !cached_n);
      ("errors", J.Int !err_n) ];
  Proto.Results
    { results = rs; fresh = !fresh_n; cached = !cached_n; errors = !err_n }

let stats_response ?now (t : t) : Proto.response =
  let now = match now with Some n -> n | None -> Ob.now t.sv_obs in
  let cs = Rcache.stats t.sv_rcache in
  Proto.Stats_r
    { st_uptime_s = now -. t.sv_started;
      st_queue_depth = queue_depth t;
      st_draining = Atomic.get t.sv_stop;
      st_requests = t.sv_requests;
      st_items = t.sv_items;
      st_ok = t.sv_ok;
      st_errors = t.sv_errors;
      st_fresh = t.sv_fresh;
      st_cached = t.sv_cached;
      st_cache_hits = cs.hits;
      st_cache_misses = cs.misses;
      st_cache_entries = cs.entries;
      st_cache_corrupt = cs.corrupt;
      st_cache_disk_bytes = cs.disk_bytes;
      st_stages =
        List.map
          (fun st ->
            let i = Pipeline.stage_index st in
            { Proto.tg_stage = Pipeline.stage_name st;
              tg_count = t.sv_stage_counts.(i);
              tg_seconds = t.sv_stage_seconds.(i) })
          Pipeline.stages }

(** Refresh the scrape-time gauges (uptime, queue depth, cache state)
    and render the registry as Prometheus text. *)
let render_metrics ?now (t : t) : string =
  let now = match now with Some n -> n | None -> Ob.now t.sv_obs in
  let cs = Rcache.stats t.sv_rcache in
  M.set t.sv_mx.x_uptime (int_of_float (now -. t.sv_started));
  M.set t.sv_mx.x_queue_depth (queue_depth t);
  M.set t.sv_mx.x_draining (if Atomic.get t.sv_stop then 1 else 0);
  M.counter_set t.sv_mx.x_cache_hits cs.hits;
  M.counter_set t.sv_mx.x_cache_misses cs.misses;
  M.counter_set t.sv_mx.x_cache_corrupt cs.corrupt;
  M.set t.sv_mx.x_cache_entries cs.entries;
  M.set t.sv_mx.x_disk_bytes cs.disk_bytes;
  Muir_obs.Prom.render t.sv_obs.Ob.o_metrics

(** The whole request semantics, synchronously: what {!serve} answers
    after queueing, and what tests call directly.  [now] is the
    admission time (defaults to the handle's clock). *)
let handle ?now (t : t) (req : Proto.request) : Proto.response =
  let now = match now with Some n -> n | None -> Ob.now t.sv_obs in
  match req with
  | Proto.Run items -> run_items ~now t items
  | Proto.Stats -> stats_response ~now t
  | Proto.Metrics -> Proto.Metrics_r (render_metrics ~now t)
  | Proto.Shutdown ->
    request_drain t;
    Proto.Bye

(** Parse-and-handle one raw payload: malformed requests become the
    structured [bad_request] error instead of an exception. *)
let handle_payload ?now (t : t) (payload : string) : Proto.response =
  match Proto.request_of_string payload with
  | req -> handle ?now t req
  | exception Proto.Bad_request m ->
    Proto.Error_r { code = "bad_request"; msg = m }

(* ------------------------------------------------------------------ *)
(* The socket loop                                                     *)

let send (fd : Unix.file_descr) (resp : Proto.response) : bool =
  match Proto.write_frame fd (Proto.response_to_string resp) with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

type drain_summary = {
  dr_requests : int;
  dr_ok : int;
  dr_errors : int;
  dr_fresh : int;
  dr_cached : int;
}

(** Atomic snapshot write: temp file + rename in the target's
    directory, the same discipline as {!Rcache.write_atomic}. *)
let write_snapshot (path : string) (contents : string) : unit =
  let dir = Filename.dirname path in
  match Filename.temp_file ~temp_dir:dir "metrics" ".tmp" with
  | tmp ->
    let oc = open_out_bin tmp in
    output_string oc contents;
    close_out oc;
    (try Unix.rename tmp path
     with Unix.Unix_error _ -> (try Sys.remove tmp with Sys_error _ -> ()))
  | exception Sys_error _ -> ()

(** Listen on [socket] (an existing file there is replaced) and serve
    until a drain is requested — by {!request_drain} (the signal path)
    or a [shutdown] request.  Draining stops accepting connections and
    admissions, answers every already-admitted request, then closes
    everything and removes the socket file.

    [?metrics_file] keeps an atomically replaced Prometheus snapshot
    current (every [metrics_interval] seconds and once at drain) for
    sidecar scrapers that cannot speak the socket protocol;
    [?trace_file] writes the retained request spans as Chrome trace
    events at drain. *)
let serve ?(max_frame = Proto.default_max_frame) ?metrics_file
    ?(metrics_interval = 2.0) ?trace_file ~(socket : string) (t : t) :
    drain_summary =
  (* A peer that disconnects mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists socket then Unix.unlink socket;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 16;
  let log = t.sv_obs.Ob.o_log in
  Olog.event log "listen"
    [ ("socket", J.Str socket); ("jobs", J.Int t.sv_jobs);
      ("queue_cap", J.Int t.sv_queue_cap) ];
  let clients = ref [] in
  let client_ids : (Unix.file_descr, int) Hashtbl.t = Hashtbl.create 8 in
  let next_client = ref 0 in
  let client_id fd =
    match Hashtbl.find_opt client_ids fd with Some i -> i | None -> -1
  in
  let close_client fd =
    Olog.event log "disconnect" [ ("client", J.Int (client_id fd)) ];
    Hashtbl.remove client_ids fd;
    clients := List.filter (fun c -> c <> fd) !clients;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let drop_pending fd =
    (* A request whose client vanished still gets evaluated during
       drain only if its fd is alive; otherwise it is discarded. *)
    let keep = Queue.create () in
    Queue.iter (fun p -> if p.pd_fd <> fd then Queue.add p keep) t.sv_queue;
    Queue.clear t.sv_queue;
    Queue.transfer keep t.sv_queue
  in
  let reject fd code msg =
    M.inc (reject_counter t code);
    Olog.event log ~level:Olog.Warn "reject"
      [ ("client", J.Int (client_id fd)); ("code", J.Str code);
        ("msg", J.Str msg) ];
    ignore (send fd (Proto.Error_r { code; msg }))
  in
  let on_frame fd payload =
    match Proto.request_of_string payload with
    | exception Proto.Bad_request m -> reject fd "bad_request" m
    | Proto.Stats -> ignore (send fd (stats_response t))
    | Proto.Metrics -> ignore (send fd (Proto.Metrics_r (render_metrics t)))
    | Proto.Shutdown ->
      request_drain t;
      ignore (send fd Proto.Bye)
    | Proto.Run items ->
      if Atomic.get t.sv_stop then reject fd "draining" "daemon is draining"
      else if queue_depth t + List.length items > t.sv_queue_cap then
        reject fd "overloaded"
          (Fmt.str
             "admission queue full (%d queued + %d requested > cap %d)"
             (queue_depth t) (List.length items) t.sv_queue_cap)
      else begin
        Olog.event log "admit"
          [ ("client", J.Int (client_id fd));
            ("items", J.Int (List.length items));
            ("queue_depth", J.Int (queue_depth t + List.length items)) ];
        Queue.add
          { pd_fd = fd; pd_items = items; pd_admitted = Ob.now t.sv_obs }
          t.sv_queue
      end
  in
  let read_from fd =
    match Proto.read_frame ~max_frame fd with
    | None ->
      drop_pending fd;
      close_client fd
    | Some payload -> on_frame fd payload
    | exception Proto.Oversize n ->
      (* The header is sound even when the payload is not worth
         reading; answer, then close — the stream is unsynchronized. *)
      reject fd "oversize"
        (Fmt.str "frame of %d bytes exceeds cap %d" n max_frame);
      drop_pending fd;
      close_client fd
    | exception Proto.Frame_error _ ->
      drop_pending fd;
      close_client fd
    | exception Unix.Unix_error _ ->
      drop_pending fd;
      close_client fd
  in
  let process_one () =
    match Queue.take_opt t.sv_queue with
    | None -> ()
    | Some p ->
      let resp = run_items ~now:p.pd_admitted t p.pd_items in
      if not (send p.pd_fd resp) then close_client p.pd_fd
  in
  let snapshot () =
    match metrics_file with
    | None -> ()
    | Some path -> write_snapshot path (render_metrics t)
  in
  let last_snap = ref (Ob.now t.sv_obs) in
  let maybe_snapshot () =
    if metrics_file <> None then begin
      let now = Ob.now t.sv_obs in
      if now -. !last_snap >= metrics_interval then begin
        last_snap := now;
        snapshot ()
      end
    end
  in
  let draining () = Atomic.get t.sv_stop in
  while not (draining ()) do
    match Unix.select (lfd :: !clients) [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = lfd then (
            match Unix.accept lfd with
            | cfd, _ ->
              Hashtbl.replace client_ids cfd !next_client;
              Olog.event log "accept" [ ("client", J.Int !next_client) ];
              incr next_client;
              clients := cfd :: !clients
            | exception Unix.Unix_error _ -> ())
          else read_from fd)
        readable;
      process_one ();
      maybe_snapshot ()
  done;
  (* Drain: no new connections or admissions; answer the queue. *)
  Olog.event log "drain" [ ("queued_items", J.Int (queue_depth t)) ];
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  while not (Queue.is_empty t.sv_queue) do
    process_one ()
  done;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    !clients;
  (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
  snapshot ();
  (match trace_file with
  | None -> ()
  | Some path ->
    write_snapshot path (Span.chrome (Span.items t.sv_obs.Ob.o_spans)));
  Olog.event log "stopped"
    [ ("requests", J.Int t.sv_requests); ("ok", J.Int t.sv_ok);
      ("errors", J.Int t.sv_errors) ];
  { dr_requests = t.sv_requests; dr_ok = t.sv_ok; dr_errors = t.sv_errors;
    dr_fresh = t.sv_fresh; dr_cached = t.sv_cached }
