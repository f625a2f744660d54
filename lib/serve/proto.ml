(** The serve wire protocol: length-prefixed JSON frames over a
    Unix-domain socket.

    {2 Framing}

    Every message is one frame: a 4-byte big-endian payload length
    followed by that many bytes of UTF-8 JSON.  A peer that closes the
    connection between frames is a clean EOF ({!read_frame} returns
    [None]); a connection that dies mid-frame raises {!Frame_error};
    a length header above the frame cap raises {!Oversize} — the
    server answers that one with a structured error before closing,
    because the header itself is trustworthy even when the advertised
    payload is not worth reading.

    {2 Requests}

    {v
    {"muirc":"serve-v1","op":"run","items":[ITEM, ...]}
    {"muirc":"serve-v1","op":"stats"}
    {"muirc":"serve-v1","op":"metrics"}
    {"muirc":"serve-v1","op":"shutdown"}
    v}

    An ITEM names its subject either as a bundled workload
    ({["workload":"gemm"]}) or as inline source
    ({["name":"my-kernel","source":"..."]}), plus an optional μopt
    configuration ([stack] from the registry, [tiles]/[banks]
    overriding that stack's defaults, [off] pass names to drop) and
    an optional [deadline_ms], a per-request deadline measured from
    admission.  A [jobs] field from older clients is still accepted
    (it must be an integer >= 1) and ignored: the simulator runs one
    item on one domain, and batch parallelism is the daemon's
    [--jobs].

    {2 Responses}

    {v
    {"op":"run","results":[RESULT, ...],"fresh":n,"cached":n,"errors":n}
    {"op":"stats", ...}
    {"op":"bye"}
    {"op":"error","code":"...","msg":"..."}
    v}

    A RESULT is either
    [{"id":i,"status":"ok","cached":bool,"report":REPORT}] with REPORT
    the schema-versioned run report of {!Muir_trace.Report}, or
    [{"id":i,"status":"error","code":"...","stage":...,"msg":"..."}].
    Request-level failures (malformed JSON, an oversize frame, an
    overloaded admission queue) come back as the [error] op; per-item
    failures (unknown workload, compile errors, deadline exceeded)
    come back inside [results] while the rest of the batch is served
    normally. *)

module J = Muir_trace.Json

let version = "serve-v1"

(** Frame cap: a request or response payload may not exceed this many
    bytes (16 MiB — a full 22-workload batch response is ~2 MiB). *)
let default_max_frame = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

exception Frame_error of string
exception Oversize of int

let rec really_write (fd : Unix.file_descr) (b : Bytes.t) (off : int)
    (len : int) : unit =
  if len > 0 then begin
    let n =
      try Unix.write fd b off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd b (off + n) (len - n)
  end

let write_frame (fd : Unix.file_descr) (payload : string) : unit =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  really_write fd b 0 (4 + n)

(** Read exactly [len] bytes; [`Eof n] reports how many arrived before
    the peer closed. *)
let read_exact (fd : Unix.file_descr) (len : int) :
    [ `Ok of string | `Eof of int ] =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then `Ok (Bytes.unsafe_to_string b)
    else
      let n =
        try Unix.read fd b off (len - off) with
        | Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if n = 0 then `Eof off
      else go (off + max 0 n)
  in
  go 0

(** Read one frame.  [None] on a clean EOF (no header bytes at all).
    @raise Frame_error on a truncated header or payload
    @raise Oversize when the header advertises more than [max_frame] *)
let read_frame ?(max_frame = default_max_frame) (fd : Unix.file_descr) :
    string option =
  match read_exact fd 4 with
  | `Eof 0 -> None
  | `Eof n -> raise (Frame_error (Fmt.str "truncated header (%d of 4 bytes)" n))
  | `Ok hdr ->
    let len =
      (Char.code hdr.[0] lsl 24)
      lor (Char.code hdr.[1] lsl 16)
      lor (Char.code hdr.[2] lsl 8)
      lor Char.code hdr.[3]
    in
    if len > max_frame then raise (Oversize len);
    if len = 0 then Some ""
    else (
      match read_exact fd len with
      | `Ok s -> Some s
      | `Eof n ->
        raise (Frame_error (Fmt.str "truncated frame (%d of %d bytes)" n len)))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type src =
  | Workload of string
  | Inline of { name : string; text : string }

type item = {
  it_id : int;
  it_src : src;
  it_stack : string;           (** registry stack name *)
  it_tiles : int option;       (** [None] = the stack's default *)
  it_banks : int option;
  it_off : string list;        (** pass names to drop from the stack *)
  it_deadline_ms : int option; (** budget measured from admission *)
}

type request =
  | Run of item list
  | Stats
  | Metrics  (** Prometheus text exposition of the daemon's registry *)
  | Shutdown

exception Bad_request of string

let item_to_json (it : item) : J.t =
  let base =
    match it.it_src with
    | Workload w -> [ ("id", J.Int it.it_id); ("workload", J.Str w) ]
    | Inline { name; text } ->
      [ ("id", J.Int it.it_id); ("name", J.Str name); ("source", J.Str text) ]
  in
  let opt k v f = match v with None -> [] | Some x -> [ (k, f x) ] in
  J.Obj
    (base
    @ [ ("stack", J.Str it.it_stack) ]
    @ opt "tiles" it.it_tiles (fun n -> J.Int n)
    @ opt "banks" it.it_banks (fun n -> J.Int n)
    @ (if it.it_off = [] then []
       else [ ("off", J.Arr (List.map (fun o -> J.Str o) it.it_off)) ])
    @ opt "deadline_ms" it.it_deadline_ms (fun n -> J.Int n))

let request_to_json (r : request) : J.t =
  let op name rest = J.Obj (("muirc", J.Str version) :: ("op", J.Str name) :: rest) in
  match r with
  | Run items -> op "run" [ ("items", J.Arr (List.map item_to_json items)) ]
  | Stats -> op "stats" []
  | Metrics -> op "metrics" []
  | Shutdown -> op "shutdown" []

let bad fmt = Fmt.kstr (fun m -> raise (Bad_request m)) fmt

let jstr = function J.Str s -> s | _ -> bad "expected a string"
let jint = function J.Int i -> i | _ -> bad "expected an integer"

let item_of_json (j : J.t) : item =
  match j with
  | J.Obj _ ->
    let m k = J.member k j in
    let src =
      match (m "workload", m "source") with
      | Some w, None -> Workload (jstr w)
      | None, Some s ->
        let name =
          match m "name" with Some n -> jstr n | None -> "inline"
        in
        Inline { name; text = jstr s }
      | Some _, Some _ -> bad "item has both \"workload\" and \"source\""
      | None, None -> bad "item has neither \"workload\" nor \"source\""
    in
    (* An older client's "jobs": validated, then ignored. *)
    (match m "jobs" with
    | Some n when jint n < 1 -> bad "\"jobs\" must be >= 1"
    | _ -> ());
    { it_id = (match m "id" with Some i -> jint i | None -> bad "item missing \"id\"");
      it_src = src;
      it_stack = (match m "stack" with Some s -> jstr s | None -> "baseline");
      it_tiles = Option.map jint (m "tiles");
      it_banks = Option.map jint (m "banks");
      it_off =
        (match m "off" with
        | None -> []
        | Some (J.Arr os) -> List.map jstr os
        | Some _ -> bad "\"off\" must be an array of pass names");
      it_deadline_ms = Option.map jint (m "deadline_ms") }
  | _ -> bad "item must be an object"

let items_of_json (j : J.t) : item list =
  match j with
  | J.Arr items -> List.map item_of_json items
  | _ -> bad "\"items\" must be an array"

let request_of_json (j : J.t) : request =
  (match J.member "muirc" j with
  | Some (J.Str v) when v = version -> ()
  | Some (J.Str v) -> bad "unsupported protocol version %S (want %s)" v version
  | _ -> bad "missing \"muirc\" protocol version field");
  match J.member "op" j with
  | Some (J.Str "run") -> (
    match J.member "items" j with
    | Some items -> Run (items_of_json items)
    | None -> bad "run request missing \"items\"")
  | Some (J.Str "stats") -> Stats
  | Some (J.Str "metrics") -> Metrics
  | Some (J.Str "shutdown") -> Shutdown
  | Some (J.Str op) -> bad "unknown op %S" op
  | _ -> bad "missing \"op\""

(** Parse a request payload.
    @raise Bad_request on malformed JSON or shape *)
let request_of_string (s : string) : request =
  match J.parse s with
  | j -> request_of_json j
  | exception J.Parse_error e -> bad "invalid JSON: %s" e

let request_to_string (r : request) : string = J.to_string (request_to_json r)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

type result_ = {
  rs_id : int;
  rs_outcome : outcome;
}

and outcome =
  | Ok_ of { cached : bool; report : J.t }
  | Err of { code : string; stage : string option; msg : string }

type stage_stat = { tg_stage : string; tg_count : int; tg_seconds : float }

type stats_payload = {
  st_uptime_s : float;
  st_queue_depth : int;
  st_draining : bool;
  st_requests : int;
  st_items : int;
  st_ok : int;
  st_errors : int;
  st_fresh : int;
  st_cached : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_entries : int;
  st_cache_corrupt : int;
  st_cache_disk_bytes : int;
  st_stages : stage_stat list;
}

type response =
  | Results of { results : result_ list; fresh : int; cached : int; errors : int }
  | Stats_r of stats_payload
  | Metrics_r of string  (** Prometheus text exposition, verbatim *)
  | Bye
  | Error_r of { code : string; msg : string }

let result_to_json (r : result_) : J.t =
  match r.rs_outcome with
  | Ok_ { cached; report } ->
    J.Obj
      [ ("id", J.Int r.rs_id); ("status", J.Str "ok");
        ("cached", J.Bool cached); ("report", report) ]
  | Err { code; stage; msg } ->
    J.Obj
      [ ("id", J.Int r.rs_id); ("status", J.Str "error");
        ("code", J.Str code);
        ("stage", match stage with Some s -> J.Str s | None -> J.Null);
        ("msg", J.Str msg) ]

let response_to_json (r : response) : J.t =
  match r with
  | Results { results; fresh; cached; errors } ->
    J.Obj
      [ ("op", J.Str "run");
        ("results", J.Arr (List.map result_to_json results));
        ("fresh", J.Int fresh); ("cached", J.Int cached);
        ("errors", J.Int errors) ]
  | Stats_r s ->
    J.Obj
      [ ("op", J.Str "stats");
        ("uptime_s", J.Float s.st_uptime_s);
        ("queue_depth", J.Int s.st_queue_depth);
        ("draining", J.Bool s.st_draining);
        ("requests", J.Int s.st_requests);
        ("items", J.Int s.st_items);
        ("ok", J.Int s.st_ok);
        ("errors", J.Int s.st_errors);
        ("fresh", J.Int s.st_fresh);
        ("cached", J.Int s.st_cached);
        ( "cache",
          J.Obj
            [ ("hits", J.Int s.st_cache_hits);
              ("misses", J.Int s.st_cache_misses);
              ("entries", J.Int s.st_cache_entries);
              ("corrupt", J.Int s.st_cache_corrupt);
              ("disk_bytes", J.Int s.st_cache_disk_bytes) ] );
        ( "stages",
          J.Arr
            (List.map
               (fun t ->
                 J.Obj
                   [ ("stage", J.Str t.tg_stage);
                     ("count", J.Int t.tg_count);
                     ("seconds", J.Float t.tg_seconds) ])
               s.st_stages) ) ]
  | Metrics_r text -> J.Obj [ ("op", J.Str "metrics"); ("text", J.Str text) ]
  | Bye -> J.Obj [ ("op", J.Str "bye") ]
  | Error_r { code; msg } ->
    J.Obj [ ("op", J.Str "error"); ("code", J.Str code); ("msg", J.Str msg) ]

exception Bad_response of string

let badr fmt = Fmt.kstr (fun m -> raise (Bad_response m)) fmt

let result_of_json (j : J.t) : result_ =
  let m k = J.member k j in
  let id = match m "id" with Some (J.Int i) -> i | _ -> badr "result missing id" in
  match m "status" with
  | Some (J.Str "ok") ->
    let cached =
      match m "cached" with Some (J.Bool b) -> b | _ -> false
    in
    let report =
      match m "report" with Some r -> r | None -> badr "ok result missing report"
    in
    { rs_id = id; rs_outcome = Ok_ { cached; report } }
  | Some (J.Str "error") ->
    { rs_id = id;
      rs_outcome =
        Err
          { code = (match m "code" with Some (J.Str c) -> c | _ -> "unknown");
            stage = (match m "stage" with Some (J.Str s) -> Some s | _ -> None);
            msg = (match m "msg" with Some (J.Str s) -> s | _ -> "") } }
  | _ -> badr "result missing status"

let response_of_json (j : J.t) : response =
  let m k = J.member k j in
  let num k d =
    match m k with
    | Some (J.Int i) -> i
    | Some (J.Float f) -> int_of_float f
    | _ -> d
  in
  match m "op" with
  | Some (J.Str "run") ->
    let results =
      match m "results" with
      | Some (J.Arr rs) -> List.map result_of_json rs
      | _ -> badr "run response missing results"
    in
    Results
      { results; fresh = num "fresh" 0; cached = num "cached" 0;
        errors = num "errors" 0 }
  | Some (J.Str "stats") ->
    let fnum k =
      match m k with
      | Some (J.Float f) -> f
      | Some (J.Int i) -> float_of_int i
      | _ -> 0.0
    in
    let cache k =
      match m "cache" with
      | Some c -> (
        match J.member k c with Some (J.Int i) -> i | _ -> 0)
      | None -> 0
    in
    let stages =
      match m "stages" with
      | Some (J.Arr ts) ->
        List.map
          (fun t ->
            { tg_stage =
                (match J.member "stage" t with Some (J.Str s) -> s | _ -> "?");
              tg_count =
                (match J.member "count" t with Some (J.Int i) -> i | _ -> 0);
              tg_seconds =
                (match J.member "seconds" t with
                | Some (J.Float f) -> f
                | Some (J.Int i) -> float_of_int i
                | _ -> 0.0) })
          ts
      | _ -> []
    in
    Stats_r
      { st_uptime_s = fnum "uptime_s";
        st_queue_depth = num "queue_depth" 0;
        st_draining =
          (match m "draining" with Some (J.Bool b) -> b | _ -> false);
        st_requests = num "requests" 0;
        st_items = num "items" 0;
        st_ok = num "ok" 0;
        st_errors = num "errors" 0;
        st_fresh = num "fresh" 0;
        st_cached = num "cached" 0;
        st_cache_hits = cache "hits";
        st_cache_misses = cache "misses";
        st_cache_entries = cache "entries";
        st_cache_corrupt = cache "corrupt";
        st_cache_disk_bytes = cache "disk_bytes";
        st_stages = stages }
  | Some (J.Str "metrics") ->
    Metrics_r
      (match m "text" with Some (J.Str t) -> t | _ -> badr "metrics response missing text")
  | Some (J.Str "bye") -> Bye
  | Some (J.Str "error") ->
    Error_r
      { code = (match m "code" with Some (J.Str c) -> c | _ -> "unknown");
        msg = (match m "msg" with Some (J.Str s) -> s | _ -> "") }
  | _ -> badr "response missing op"

let response_of_string (s : string) : response =
  match J.parse s with
  | j -> response_of_json j
  | exception J.Parse_error e -> badr "invalid JSON: %s" e

let response_to_string (r : response) : string = J.to_string (response_to_json r)
