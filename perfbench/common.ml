(* Shared machinery of the benchmark: per-op sample stores and the
   statistics taken over them, benchmark-side spans, host witness loops
   and the result line.

   Every timed metric comes from ops timed one by one and cycled
   round-robin through the whole run, so each op is sampled in many of
   the host's contention phases; a metric comes from those per-op
   samples (medians, percentiles), never from one pass total.

   The host moves between a fast state and one up to ~1.7x slower, in
   phases of seconds to minutes, often longer than a run.  So every
   timed sample is scaled to a reference host speed by the host-speed
   witness read just before it (see NOTES.md, Noise). *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* The witness is a fixed OCaml loop that allocates, builds lists and
   formats integers, as the simulator does, but runs no program code.
   It allocates less than one minor heap.  It runs once to bring its
   part of the minor heap into cache, the minor heaps are emptied, and
   its second run is timed: so no collection falls inside the timed
   run, it touches only memory the warm-up brought in, and neither the
   program's heap nor what the last op left in the caches changes its
   time.  The minor heaps are emptied again after it, so each op starts
   as if no reading had been taken. *)
let witness_loop () =
  let acc = ref 0 in
  for i = 1 to 12 do
    let l = List.init 1000 (fun j -> (i * j, string_of_int j)) in
    let m = List.map (fun (a, b) -> a + String.length b) (List.rev l) in
    acc := !acc + List.fold_left ( + ) 0 m
  done;
  if !acc = 0 then print_string ""

(** Spin until [n] domains have arrived at [b]. *)
let arrive (b : int Atomic.t) (n : int) =
  Atomic.incr b;
  while Atomic.get b < n do Domain.cpu_relax () done

(** One witness reading in ms, run on [cores] domains at once (for work
    spread over that many cores) and averaged over them. *)
let witness_ms ~(cores : int) : float =
  let warm = Atomic.make 0 and go = Atomic.make 0 in
  let timed ~main () =
    witness_loop ();
    arrive warm cores;
    (* Empties every domain's minor heap while the others wait. *)
    if main then Gc.minor ();
    arrive go cores;
    let t0 = now () in
    witness_loop ();
    now () -. t0
  in
  Gc.minor ();
  let others = List.init (cores - 1) (fun _ -> Domain.spawn (timed ~main:false)) in
  let mine = timed ~main:true () in
  let total = List.fold_left (fun acc d -> acc +. Domain.join d) mine others in
  Gc.minor ();
  1000.0 *. total /. float_of_int cores

(** The witness's reading at the reference host speed: its fast-state
    reading on a 2-core Intel Xeon KVM guest.  Scaled samples are what
    an op would take on a host where the witness reads this. *)
let reference_ms = 1.0

(** How many cores the workload's ops keep busy, the latest host
    slowness (witness reading / [reference_ms]) and every reading of the
    run in ms. *)
let witness_cores = ref 1
let slowness = ref 1.0
let readings : float list ref = ref []
let last_read = ref neg_infinity

let take_reading () : unit =
  let w = witness_ms ~cores:!witness_cores in
  readings := w :: !readings;
  slowness := w /. reference_ms;
  last_read := now ()

(** Read the witness before an op, unless one was read in the last
    50 ms (ops shorter than that share a reading). *)
let read_host () : unit = if now () -. !last_read >= 0.05 then take_reading ()

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted (a : float array) =
  let a = Array.copy a in
  Array.sort compare a;
  a

(** Linear-interpolated quantile [q] in [0,1] of a non-empty sample. *)
let quantile (a : float array) (q : float) : float =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "quantile: empty sample";
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5

(** A tail percentile is reported only when at least ten samples lie
    beyond it. *)
let tail_supported ~(n : int) (q : float) : bool =
  float_of_int n *. (1.0 -. q) >= 10.0

let geomean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "geomean: empty"
  | _ ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum = Array.fold_left ( +. ) 0.0

(** Seeded Fisher-Yates permutation: the only thing most workloads
    take from [--seed] is the round-robin order of their ops. *)
let shuffle (rng : Random.State.t) (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Per-op samples                                                      *)

(** Seconds per sample, one list per op, keyed by the op. *)
type 'k samples = ('k, float list) Hashtbl.t

let samples () : 'k samples = Hashtbl.create 64

(** Add a sample of [dt] seconds, scaled to the reference host speed by
    [slowness] (default: the latest reading). *)
let add ?(slowness = !slowness) (s : 'k samples) (op : 'k) (dt : float) =
  Hashtbl.replace s op ((dt /. slowness) :: Option.value ~default:[] (Hashtbl.find_opt s op))

(** Per-op medians (in no particular order). *)
let medians (s : 'k samples) : float array =
  Array.of_list (Hashtbl.fold (fun _ l acc -> median (Array.of_list l) :: acc) s [])

let pooled (s : 'k samples) : float array =
  Array.of_list (List.concat (Hashtbl.fold (fun _ l acc -> l :: acc) s []))

(** Mean over ops of the per-op median, in ms. *)
let mean_median_ms (s : 'k samples) : float =
  let m = medians s in
  if Array.length m = 0 then 0.0 else 1000.0 *. sum m /. float_of_int (Array.length m)

(** Ops per second: ops divided by the sum of per-op median seconds. *)
let items_per_s (s : 'k samples) : float =
  let m = medians s in
  float_of_int (Array.length m) /. sum m

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans                                                *)

(* A span is recorded around each call the benchmark makes into a
   layer's public entry point.  Spans stay in memory and are written
   out when the run ends; per-layer self time (a span's duration minus
   what its children cover) is computed from them.  Off unless the run
   is traced, and then only in the traced rounds. *)

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 for an op's root span *)
  sp_op : int;      (** which op of the workload *)
  sp_sample : int;  (** spans of one op execution share this id *)
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let cur_op = ref 0
let cur_sample = ref 0
let stack : int list ref = ref []
let sample_slowness : (int, float) Hashtbl.t = Hashtbl.create 1024

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record ~id ~parent name t0 t1 =
  spans :=
    { sp_id = id; sp_parent = parent; sp_op = !cur_op;
      sp_sample = !cur_sample; sp_name = name; sp_t0 = t0; sp_t1 = t1 }
    :: !spans

let parent () = match !stack with p :: _ -> p | [] -> -1

(** Run [f] inside a span named [name] (a no-op when not tracing). *)
let span (name : string) (f : unit -> 'a) : 'a =
  if not !tracing then f ()
  else begin
    let id = fresh_id () and par = parent () in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      stack := List.tl !stack;
      record ~id ~parent:par name t0 (now ())
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(** Start one execution of op [op]: a fresh sample id and a root span. *)
let op (op : int) (f : unit -> 'a) : 'a =
  incr cur_sample;
  if !tracing then Hashtbl.replace sample_slowness !cur_sample !slowness;
  cur_op := op;
  span "op" f

(** Attach layer time measured elsewhere (a pipeline [ctl]'s stage
    clock) as child spans of the innermost open span, laid end to end
    from [t0]. *)
let children ~(t0 : float) (parts : (string * float) list) : unit =
  let parent = parent () in
  if !tracing then
    ignore
      (List.fold_left
         (fun t (name, secs) ->
           if secs > 0.0 then record ~id:(fresh_id ()) ~parent name t (t +. secs);
           t +. secs)
         t0 parts)

(** A pipeline call under a fresh [ctl], traced as a span whose
    children are the stages the [ctl] clocked. *)
let pipe (name : string) (f : Muir_pipeline.Pipeline.ctl -> 'a) : 'a =
  let module P = Muir_pipeline.Pipeline in
  let ctl = P.ctl () in
  span name (fun () ->
      let t0 = now () in
      let r = f ctl in
      children ~t0
        (List.filter_map
           (fun st ->
             if ctl.P.stage_counts.(P.stage_index st) = 0 then None
             else Some (P.stage_name st, P.seconds ctl st))
           P.stages);
      r)

(** Per-layer self time in ms: for each op, the median over its
    executions of the summed self time of spans named [name], scaled to
    the reference host speed; then the mean over ops.  0 when no span
    of that name was recorded. *)
let self_ms (name : string) : float =
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let child_time = Hashtbl.create 1024 and per_sample = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.sp_parent >= 0 then bump child_time s.sp_parent (s.sp_t1 -. s.sp_t0))
    !spans;
  List.iter
    (fun s ->
      if s.sp_name = name then
        bump per_sample (s.sp_op, s.sp_sample)
          (s.sp_t1 -. s.sp_t0
          -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.sp_id)))
    !spans;
  let per_op = samples () in
  Hashtbl.iter
    (fun (op, sample) v ->
      add ~slowness:(Hashtbl.find sample_slowness sample) per_op op v)
    per_sample;
  (* Ops that never call the layer count as zero time in it. *)
  let ops = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ops s.sp_op ()) !spans;
  if Hashtbl.length ops = 0 then 0.0
  else 1000.0 *. sum (medians per_op) /. float_of_int (Hashtbl.length ops)

(** Write the spans as Chrome trace events (open in about:tracing or
    Perfetto). *)
let write_spans (path : string) : unit =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"sample\":%d}}"
        (Muir_trace.Json.escape s.sp_name) s.sp_op (s.sp_t0 *. 1e6)
        ((s.sp_t1 -. s.sp_t0) *. 1e6) s.sp_id s.sp_parent s.sp_sample)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Host witnesses                                                      *)

(* Two fixed loops timed at the start and the end of every run.  The
   integer loop barely feels neighbours; the random walk over 8 MiB
   feels every one that contends for shared cache and memory.  They
   move no metric: they show whether a slow run met a busy host. *)

let alu_ms () : float =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + 12345 + i
  done;
  let dt = now () -. t0 in
  if !x = 0 then print_string "";
  1000.0 *. dt

(** The integer loop on every core at once, as the slowest core's ms: a
    core the guest is losing time on reads high here even while the
    others run at full speed.  run.py waits on it before a run. *)
let alu_all_ms () : float =
  let others =
    List.init (Domain.recommended_domain_count () - 1) (fun _ -> Domain.spawn alu_ms)
  in
  List.fold_left (fun m d -> Float.max m (Domain.join d)) (alu_ms ()) others

(* The 8 MiB buffer is made afresh for each reading, so it does not stay
   resident beside the workload and count in its peak memory. *)
let mem_ms () : float =
  let a = Array.init (1 lsl 20) (fun i -> (i * 7919) land ((1 lsl 20) - 1)) in
  let mask = Array.length a - 1 in
  let t0 = now () in
  let j = ref 0 and acc = ref 0 in
  for i = 1 to 500_000 do
    j := (a.(!j) + i) land mask;
    acc := !acc + !j
  done;
  let dt = now () -. t0 in
  if !acc = -1 then print_string "";
  1000.0 *. dt

(* ------------------------------------------------------------------ *)
(* Peak memory                                                         *)

(** Restart this process's VmHWM from its current resident set, so the
    peak counts only what comes after. *)
let reset_peak () : unit =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(** VmHWM of this process in MB, from /proc. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun k ->
          float_of_int k /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Outcome of a run                                                    *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  exact : (string * float) list;
      (** counts besides design_* that must repeat bit-identically for a
          seed *)
}

(** Correctness-gate bookkeeping: a failed gate counts its op failed
    and is reported on stderr. *)
type gates = {
  mutable g_attempted : int;
  mutable g_failed : int;
  mutable this_failed : bool;  (** the current op already counted *)
}

let gates () = { g_attempted = 0; g_failed = 0; this_failed = false }

let attempt (g : gates) =
  g.g_attempted <- g.g_attempted + 1;
  g.this_failed <- false

let fail (g : gates) fmt =
  Printf.ksprintf
    (fun m ->
      if not g.this_failed then g.g_failed <- g.g_failed + 1;
      g.this_failed <- true;
      prerr_endline ("gate failed: " ^ m))
    fmt

(** An exact count seen in every round must repeat bit-identically. *)
let same_every_round (g : gates) (name : string) (vals : float list) : float =
  match vals with
  | [] -> invalid_arg ("no rounds for " ^ name)
  | v :: rest ->
    if List.exists (fun x -> Int64.bits_of_float x <> Int64.bits_of_float v) rest
    then fail g "%s differs between rounds" name;
    v

(** Run the set-up [f] [n] times; the median seconds, each scaled to
    the reference host speed by a reading just before it, and the first
    result (the others are dropped as soon as they are made). *)
let setup_median (n : int) (f : unit -> 'a) : float * 'a =
  let timed () =
    take_reading ();
    let t0 = now () in
    let r = f () in
    ((now () -. t0) /. !slowness, r)
  in
  let dt, r = timed () in
  let dts = dt :: List.init (n - 1) (fun _ -> fst (timed ())) in
  (median (Array.of_list dts), r)

(** Run [round] until [seconds] have passed, whole rounds only, at
    least [min_rounds] of them.  [round i] gets the round number.
    Returns this process's peak memory in MB: the median over rounds of
    each round's own VmHWM, so neither the set-ups and the witnesses nor
    one round that met the heap at its largest decide it. *)
let rounds ~(seconds : float) ~(min_rounds : int) (round : int -> unit) : float =
  let t0 = now () in
  let n = ref 0 and peaks = ref [] in
  while !n < min_rounds || now () -. t0 < seconds do
    reset_peak ();
    round !n;
    peaks := peak_rss_mb () :: !peaks;
    incr n
  done;
  median (Array.of_list !peaks)

(** The end-to-end metrics every workload reports.  [lat] holds the
    per-op latency samples; p50 and p90 are taken over all of them (every
    op weighs the same, having one sample per round), and p90 needs at
    least ten samples beyond it. *)
let end_to_end (g : gates) ~setup_s ~items_per_s ~(lat : 'k samples) ~rss
    ~(cycles : float list) ~(alms : float list) =
  let pool = pooled lat in
  if not (tail_supported ~n:(Array.length pool) 0.9) then
    fail g "too few samples (%d) for p90" (Array.length pool);
  [ ("setup_s", setup_s, "s");
    ("items_per_s", items_per_s, "1/s");
    ("p50_ms", 1000.0 *. median pool, "ms");
    ("p90_ms", 1000.0 *. quantile pool 0.9, "ms");
    ("peak_rss_mb", rss, "MB");
    ("design_cycles", geomean cycles, "cycles");
    ("design_alms", geomean alms, "ALMs") ]

(** Traced over untraced per-op median latency. *)
let trace_overhead ~traced ~untraced =
  ("trace.overhead", median (medians traced) /. median (medians untraced), "ratio")
