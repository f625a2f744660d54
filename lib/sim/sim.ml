(** Cycle-level simulation of μIR circuits.

    Execution model (§3.2 of the paper): the circuit is a set of
    asynchronously running task blocks.  Each task has a hardware
    queue of pending invocations and [tiles] execution units.  Within
    a task, execution is a pipelined latency-insensitive dataflow:
    every edge is a ready/valid channel (a register stage), nodes fire
    when all wired inputs hold tokens and downstream has space, and
    concurrent invocations complete in order of invocation.

    Two task-instance disciplines exist:
    - ordinary tasks run one {e instance per tile}; function tasks
      pipeline multiple invocations through an instance (wave
      pipelining), loop tasks process one invocation at a time (the
      loop ring already pipelines its iterations);
    - tasks on a call/spawn cycle (recursive Cilk tasks such as FIB
      and M-SORT) are {e dynamic}: each invocation gets its own
      context, contexts park while blocked, and at most [tiles]
      contexts may fire datapath operations in a cycle — the
      issue-queue + execution-tile structure of §3.6.

    {2 The event-driven kernel}

    [step] does not sweep every node of every instance.  Each node
    carries [queued] flags and sits on a per-instance wake worklist;
    it is attempted only when something that could enable it changed:
    a token committed into an input channel, space freed in a
    downstream channel, a pipeline/memory/reorder-buffer entry
    matured, a child task's queue drained, a spawned child joined, or
    an invocation was injected.  Nodes sleeping on latency wake from a
    ring-buffer timing wheel keyed by absolute cycle.  Completion
    checks and junction arbitration likewise run only on instances
    whose state moved, and only channels with staged writes are
    committed.

    {2 Data layout}

    Everything on the steady-state path is preallocated
    struct-of-arrays indexed by dense ids: channels are flat
    ring-buffer columns in the {!Muir_ir.Flat} token encoding, node
    pipeline/memory/reorder/sync state are fixed rings, invocations
    and task-queue entries are pooled flat rows, wake worklists are
    preallocated cursor arrays, and retired dynamic instances return
    to a per-task pool and are reborn in place.  The steady-state fire
    path allocates {e zero} words on the OCaml minor heap (asserted by
    the bench gate); wall-clock throughput is the headline metric of
    the bench suite.

    The wake discipline is {e conservative}: over-waking a node is
    always safe (a failed attempt has no side effects), under-waking
    never happens (every condition a blocked node waits on has a wake
    source).  Within a cycle the woken nodes are drained in the same
    deterministic order the dense sweep used — tasks in id order,
    instances in queue order, nodes in graph order — so the kernel is
    bit-for-bit cycle-accurate against the dense reference:
    [total_cycles], [fires] and all utilization stats are unchanged on
    every workload (enforced by the golden constants in
    [test/test_sim.ml]).

    Functional results are written to the same flat memory the golden
    interpreter uses, so every simulation is checkable end to end. *)

module G = Muir_core.Graph
module Cost = Muir_core.Cost
module T = Muir_ir.Types
module F = Muir_ir.Flat
module Tr = Muir_trace.Trace
module Ctr = Muir_trace.Counters

type token = T.value

let truthy = Exec.truthy
let to_int = Exec.to_int

(* ------------------------------------------------------------------ *)
(* Runtime structures                                                   *)

(* Channels are flat ring buffers of token columns.  Three monotonic
   cursors: [fhead] (next pop), [fmid] (end of committed tokens),
   [ftail] (end of staged writes).  Writes land between [fmid] and
   [ftail] and become visible at the end-of-cycle commit
   ([fmid <- ftail]).  The back-pointers drive the wake lists: a
   commit wakes the consumer ([f_dst]) for fire, a pop wakes the
   producer ([f_src]) for emission. *)
type fifo = {
  fcap : int;                          (** architectural capacity *)
  fmask : int;                         (** physical ring size - 1 *)
  ftags : int array;
  fnums : int array;
  fflts : float array;
  fobjs : token array;
  mutable fhead : int;
  mutable fmid : int;
  mutable ftail : int;
  mutable f_dirty : bool;              (** queued on the commit list *)
  mutable f_src : (instance * node_rt) option;
  mutable f_dst : (instance * node_rt) option;
}

and sync_ctx = {
  mutable live_children : int;
  mutable cx_owner : instance option;
      (** instance whose invocation owns this context: re-checked for
          completion when a child joins *)
  mutable cx_w_inst : instance array;  (** parked SyncWait nodes *)
  mutable cx_w_node : node_rt array;
  mutable cx_nw : int;
}

(* Reply routing lives in flat fields: [iv_rkind] 0 = root, 1 = call,
   2 = spawn; the remaining fields are dummies for the root reply. *)
and invocation = {
  mutable iv_gen : int;         (** bumped on pool reuse: stale ring
                                    entries referencing a completed
                                    invocation are detectable *)
  mutable iv_wave : int;
  mutable iv_rkind : int;
  mutable iv_rinst : instance;
  mutable iv_rnode : node_rt;
  mutable iv_rwave : int;
  mutable iv_rctx : sync_ctx;   (** decremented when a spawn completes *)
  mutable iv_eff_ctx : sync_ctx; (** where this invocation's spawns join *)
  iv_own : sync_ctx option;     (** fresh context (function tasks);
                                    pooled with the invocation *)
  iv_lo_tags : int array;       (** live-outs; [tabsent] = not yet set *)
  iv_lo_nums : int array;
  iv_lo_flts : float array;
  iv_lo_objs : token array;
  mutable iv_stores : int;      (** outstanding stores attributed here *)
}

and node_rt = {
  nr : G.node;
  nr_cost : Cost.t;
  mutable nr_idx : int;           (** position in [inodes] (drain order) *)
  nr_in : fifo option array;      (** [None] = immediate slot *)
  im_tags : int array;            (** immediates, flat columns *)
  im_nums : int array;
  im_flts : float array;
  im_objs : token array;
  nr_out : fifo array array;      (** per out port: fan-out channels *)
  nr_words : int;                 (** words per access (memory nodes) *)
  nr_space : int;                 (** address space (memory nodes) *)
  mutable nr_fired : int;         (** firings so far (the wave counter) *)
  mutable nr_busy_until : int;
  (* pipeline ring: 4 slots of (ready cycle, out port, token) *)
  np_ready : int array;
  np_port : int array;
  np_tags : int array;
  np_nums : int array;
  np_flts : float array;
  np_objs : token array;
  mutable np_head : int;
  mutable np_tail : int;
  (* outstanding-request window: ring of [max_outstanding] entries *)
  nm_live : bool array;           (** entry carries an access *)
  nm_store : bool array;
  nm_hasiv : bool array;          (** store attribution attached *)
  nm_acc : Memsys.access array;
  nm_inv : invocation array;
  mutable nm_head : int;
  mutable nm_tail : int;
  mutable na_pool : Memsys.access array;  (** reusable accesses *)
  mutable na_n : int;
  (* call/spawn reorder buffer: wave-indexed flat rows, width [rs_w] *)
  rs_w : int;
  mutable rs_wave : int array;    (** -1 = empty *)
  mutable rs_tags : int array;
  mutable rs_nums : int array;
  mutable rs_flts : float array;
  mutable rs_objs : token array;
  mutable nr_next_resp : int;
  (* pending sync waits: FIFO ring of (invocation, wave) *)
  mutable ns_inv : invocation array;
  mutable ns_wave : int array;
  mutable ns_gen : int array;   (** [iv_gen] at push time *)
  mutable ns_head : int;
  mutable ns_tail : int;
  mutable nr_qfire : bool;        (** on the instance's fire worklist *)
  mutable nr_qemit : bool;        (** on the instance's emit worklist *)
  mutable nr_wait_child : bool;   (** parked on a full child task queue *)
}

and instance = {
  it : G.task;
  iid : int;
  mutable i_ord : int;            (** drain order within the task *)
  mutable i_slot : int;           (** position in the task's [tinst] *)
  inodes : node_rt array;
  inode_by_id : node_rt option array;  (** node id -> runtime (ids are
                                           sparse after fusion) *)
  ififos : fifo array;            (** indexed by edge id *)
  (* inflight window: wave-indexed table, pow2, -1 = empty slot *)
  mutable iw_wave : int array;
  mutable iw_iv : invocation array;
  mutable i_lo : int;             (** lowest possibly-inflight wave *)
  mutable i_count : int;          (** inflight invocations *)
  mutable next_wave : int;
  mutable live : bool;            (** dynamic instances are retired *)
  mutable i_retired : int;        (** cycle of retirement (pool guard) *)
  idynamic : bool;
  ipipe_loop : bool;
      (** leaf loop (no stores/calls/spawns/syncs): safe to pipeline
          invocations through the ring, like the paper's in-order
          concurrent invocations *)
  iprime : int array;             (** resting token count per edge *)
  (* initial tokens, one row per token, for allocation-free rebirth *)
  i_init_eid : int array;
  i_init_tags : int array;
  i_init_nums : int array;
  i_init_flts : float array;
  i_init_objs : token array;
  (* junction queue: ring of (space, sub-request) *)
  mutable ij_space : int array;
  mutable ij_sr : Memsys.subreq array;
  mutable ij_head : int;
  mutable ij_tail : int;
  isyncs : node_rt array;         (** SyncWait nodes, for join wakes *)
  (* wake worklists: double-buffered, [nnodes]-sized (dedup flags
     bound the population) *)
  mutable if_v : node_rt array;
  mutable if_v2 : node_rt array;
  mutable if_n : int;
  mutable ie_v : node_rt array;
  mutable ie_v2 : node_rt array;
  mutable ie_n : int;
  mutable i_qfire : bool;         (** on the task's fire worklist *)
  mutable i_qemit : bool;
  mutable i_qcomplete : bool;
  mutable i_qjunction : bool;
  mutable ivp : invocation array; (** invocation pool *)
  mutable ivp_n : int;
  i_nres : int;
  i_sc : Exec.sc;                 (** flat ALU scratch *)
  i_prof : Ctr.Prof.iprof;         (** always-on stall accounting *)
  i_nctr : Ctr.node_ctr array;
  (** whole-run counter rows, parallel to [inodes] — resolved once at
      construction so retirement folds without hashing a key *)
}

type task_rt = {
  tk : G.task;
  t_arity : int;
  t_nres : int;
  tdynamic : bool;
  (* pending invocations: flat ring, row-major args + reply routing *)
  mutable tq_tags : int array;
  mutable tq_nums : int array;
  mutable tq_flts : float array;
  mutable tq_objs : token array;
  mutable tq_ctx : sync_ctx array;
  mutable tq_rkind : int array;
  mutable tq_rinst : instance array;
  mutable tq_rnode : node_rt array;
  mutable tq_rwave : int array;
  mutable tq_rctx : sync_ctx array;
  mutable tq_head : int;
  mutable tq_tail : int;
  mutable tinst : instance array;
  mutable tinst_n : int;
  mutable tinvocations : int;     (** total, for stats *)
  mutable tbusy : int;            (** cycles with at least one firing *)
  mutable t_fired_now : bool;
  mutable trr : int;              (** round-robin dispatch cursor *)
  mutable t_next_ord : int;       (** next [i_ord] for dynamic instances
                                      (decreasing: newest first) *)
  (* instance worklists (dedup via i_q* flags) *)
  mutable tf_v : instance array;  (** woken for fire *)
  mutable tf_v2 : instance array;
  mutable tf_n : int;
  mutable te_v : instance array;  (** woken for emit *)
  mutable te_v2 : instance array;
  mutable te_n : int;
  mutable tc_v : instance array;  (** re-check invocation completion *)
  mutable tc_n : int;
  mutable tc2 : instance array;   (** completion-drain scratch *)
  mutable tj_v : instance array;  (** queued junction sub-requests *)
  mutable tj_v2 : instance array;
  mutable tj_n : int;
  mutable tw_inst : instance array;  (** callers parked on full queue *)
  mutable tw_node : node_rt array;
  mutable tw_n : int;
  (* retired dynamic instances, FIFO (head reused only on a later
     cycle than its retirement, so staged state flushes first) *)
  mutable tp_v : instance array;
  mutable tp_head : int;
  mutable tp_tail : int;
}

type stats = {
  cycles : int;
  dma_cycles : int;
  total_cycles : int;
  fires : int;
  invocations : (string * int) list;
  utilization : (string * float) list;
      (** per task: fraction of cycles with at least one node firing *)
  mem : Memsys.struct_stats list;
  mem_requests : int;
  wall_seconds : float;           (** kernel wall-clock time of [run] *)
  cycles_per_sec : float;         (** simulated cycles per wall second *)
  woken_per_cycle : float;        (** fire-phase node attempts per cycle *)
  live_nodes_per_cycle : float;   (** instantiated nodes per cycle (the
                                      dense sweep would attempt these) *)
  gc_minor_words_per_cycle : float;
      (** steady-state minor-heap allocation rate of the kernel *)
  gc_major_collections : int;     (** major GCs during [run] *)
}

type result = {
  value : token;                  (** root task's return value *)
  memory : Muir_ir.Memory.t;
  stats : stats;
  counters : Ctr.t;               (** always-on performance counters *)
}

exception Deadlock of string
exception Cycle_limit of int

(* ------------------------------------------------------------------ *)
(* Timing wheel                                                         *)

(* 512-slot wheel of (instance, node, absolute cycle, kind); kind 0 =
   fire, 1 = emit.  Entries keep their absolute cycle, so a slot can
   safely hold wakes a full wheel turn ahead. *)
let wheel_size = 512

type wslot = {
  mutable wi : instance array;
  mutable wn : node_rt array;
  mutable wc : int array;
  mutable wk : int array;
  mutable w_n : int;
}

type t = {
  circ : G.circuit;
  ms : Memsys.t;
  tasks : task_rt array;          (** indexed by task id *)
  mutable now : int;
  mutable fires : int;
  mutable last_activity : int;
  mutable next_iid : int;
  mutable root_done : bool;
  mutable root_val : token;
  junction_width : int array;     (** per task *)
  max_outstanding : int;
  wheel : wslot array;
  mutable ld_v : fifo array;      (** channels with staged writes *)
  mutable ld_n : int;
  mutable woken : int;            (** total fire-phase attempts, stats *)
  mutable live_nodes : int;       (** nodes across live instances *)
  mutable node_cycles : int;      (** Σ live_nodes per cycle, stats *)
  tr : Tr.t option;               (** event sink; [None] = tracing off *)
  ctrs : Ctr.t;                   (** always-on counter bank *)
  otasks : Ctr.occ_ctr array;     (** queue-occupancy integrals *)
  ostructs : Ctr.occ_ctr array;   (** per [ms.structs] row *)
}

(* ------------------------------------------------------------------ *)
(* Small flat-vector helpers                                           *)

(* Amortized push into a growable array; the caller stores the
   returned array and bumps its own count. *)
let vpush : 'a. 'a array -> int -> 'a -> 'a array =
 fun arr n x ->
  let cap = Array.length arr in
  if n < cap then begin
    arr.(n) <- x;
    arr
  end
  else begin
    let na = Array.make (max 8 (cap * 2)) x in
    Array.blit arr 0 na 0 n;
    na.(n) <- x;
    na
  end

(* In-place insertion sorts over the worklist prefixes (keys are
   unique and lists are short, so this beats allocating a sort). *)
let sort_nodes (a : node_rt array) (n : int) : unit =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let k = x.nr_idx in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j).nr_idx > k do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let sort_insts (a : instance array) (n : int) : unit =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let k = x.i_ord in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j).i_ord > k do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* ------------------------------------------------------------------ *)
(* Dummy rows (array initializers; never read through)                 *)

let dummy_task : G.task =
  { tid = -1; tname = "<none>"; tkind = G.Tfunc; nodes = []; edges = [];
    next_nid = 0; next_eid = 0; arg_tys = []; res_tys = []; tiles = 1;
    queue_depth = 1; children = [] }

let dummy_gnode : G.node =
  { nid = -1; kind = G.SyncWait; ins = [||]; nty = T.TFloat; label = "" }

let dummy_ctx : sync_ctx =
  { live_children = 0; cx_owner = None; cx_w_inst = [||]; cx_w_node = [||];
    cx_nw = 0 }

let dummy_node : node_rt =
  { nr = dummy_gnode; nr_cost = Cost.node_cost G.SyncWait; nr_idx = 0;
    nr_in = [||]; im_tags = [||]; im_nums = [||]; im_flts = [||];
    im_objs = [||]; nr_out = [||]; nr_words = 1; nr_space = 0; nr_fired = 0;
    nr_busy_until = 0; np_ready = [||]; np_port = [||]; np_tags = [||];
    np_nums = [||]; np_flts = [||]; np_objs = [||]; np_head = 0;
    np_tail = 0; nm_live = [||]; nm_store = [||]; nm_hasiv = [||];
    nm_acc = [||]; nm_inv = [||]; nm_head = 0; nm_tail = 0; na_pool = [||];
    na_n = 0; rs_w = 0; rs_wave = [||]; rs_tags = [||]; rs_nums = [||];
    rs_flts = [||]; rs_objs = [||]; nr_next_resp = 0; ns_inv = [||];
    ns_wave = [||]; ns_gen = [||]; ns_head = 0; ns_tail = 0;
    nr_qfire = false; nr_qemit = false; nr_wait_child = false }

let dummy_inst : instance =
  { it = dummy_task; iid = -1; i_ord = 0; i_slot = 0; inodes = [||];
    inode_by_id = [||]; ififos = [||]; iw_wave = [||]; iw_iv = [||];
    i_lo = 0; i_count = 0; next_wave = 0; live = false; i_retired = -1;
    idynamic = false; ipipe_loop = false; iprime = [||]; i_init_eid = [||];
    i_init_tags = [||]; i_init_nums = [||]; i_init_flts = [||];
    i_init_objs = [||]; ij_space = [||];
    ij_sr = [||]; ij_head = 0; ij_tail = 0; isyncs = [||]; if_v = [||];
    if_v2 = [||]; if_n = 0; ie_v = [||]; ie_v2 = [||]; ie_n = 0;
    i_qfire = false; i_qemit = false; i_qcomplete = false;
    i_qjunction = false; ivp = [||]; ivp_n = 0; i_nres = 0;
    i_sc = Exec.make_sc ~slots:1;
    i_prof = Ctr.Prof.make ~born:0 ~nnodes:0; i_nctr = [||] }

let dummy_inv : invocation =
  { iv_gen = 0; iv_wave = -1; iv_rkind = 0; iv_rinst = dummy_inst;
    iv_rnode = dummy_node; iv_rwave = 0; iv_rctx = dummy_ctx;
    iv_eff_ctx = dummy_ctx; iv_own = None; iv_lo_tags = [||];
    iv_lo_nums = [||]; iv_lo_flts = [||]; iv_lo_objs = [||];
    iv_stores = 0 }

let dummy_access : Memsys.access = Memsys.make_access ~words:1 ~notify:ignore

(* ------------------------------------------------------------------ *)
(* Wake plumbing                                                        *)

let wake_fire (sim : t) (inst : instance) (n : node_rt) : unit =
  if inst.live && not n.nr_qfire then begin
    n.nr_qfire <- true;
    inst.if_v.(inst.if_n) <- n;
    inst.if_n <- inst.if_n + 1;
    if not inst.i_qfire then begin
      inst.i_qfire <- true;
      let trt = sim.tasks.(inst.it.tid) in
      trt.tf_v <- vpush trt.tf_v trt.tf_n inst;
      trt.tf_n <- trt.tf_n + 1
    end
  end

let wake_emit (sim : t) (inst : instance) (n : node_rt) : unit =
  if inst.live && not n.nr_qemit then begin
    n.nr_qemit <- true;
    inst.ie_v.(inst.ie_n) <- n;
    inst.ie_n <- inst.ie_n + 1;
    if not inst.i_qemit then begin
      inst.i_qemit <- true;
      let trt = sim.tasks.(inst.it.tid) in
      trt.te_v <- vpush trt.te_v trt.te_n inst;
      trt.te_n <- trt.te_n + 1
    end
  end

let wake_complete (sim : t) (inst : instance) : unit =
  if inst.live && not inst.i_qcomplete then begin
    inst.i_qcomplete <- true;
    let trt = sim.tasks.(inst.it.tid) in
    trt.tc_v <- vpush trt.tc_v trt.tc_n inst;
    trt.tc_n <- trt.tc_n + 1
  end

let wake_junction (sim : t) (inst : instance) : unit =
  if inst.live && not inst.i_qjunction then begin
    inst.i_qjunction <- true;
    let trt = sim.tasks.(inst.it.tid) in
    trt.tj_v <- vpush trt.tj_v trt.tj_n inst;
    trt.tj_n <- trt.tj_n + 1
  end

(** Schedule a wake on the wheel at absolute cycle [c] (clamped to the
    future); [kind] 0 = fire, 1 = emit. *)
let at (sim : t) (c : int) (inst : instance) (n : node_rt) (kind : int) :
    unit =
  let c = max c (sim.now + 1) in
  let s = sim.wheel.(c land (wheel_size - 1)) in
  let m = s.w_n in
  s.wi <- vpush s.wi m inst;
  s.wn <- vpush s.wn m n;
  s.wc <- vpush s.wc m c;
  s.wk <- vpush s.wk m kind;
  s.w_n <- m + 1

(* Drain this cycle's wheel slot, keeping entries whose absolute cycle
   lies a full wheel turn ahead. *)
let rec drain_slot (sim : t) (s : wslot) (i : int) (n : int) (kept : int)
    : int =
  if i >= n then kept
  else if s.wc.(i) = sim.now then begin
    if s.wk.(i) = 0 then wake_fire sim s.wi.(i) s.wn.(i)
    else wake_emit sim s.wi.(i) s.wn.(i);
    drain_slot sim s (i + 1) n kept
  end
  else begin
    s.wi.(kept) <- s.wi.(i);
    s.wn.(kept) <- s.wn.(i);
    s.wc.(kept) <- s.wc.(i);
    s.wk.(kept) <- s.wk.(i);
    drain_slot sim s (i + 1) n (kept + 1)
  end

let drain_timed (sim : t) : unit =
  let s = sim.wheel.(sim.now land (wheel_size - 1)) in
  if s.w_n > 0 then s.w_n <- drain_slot sim s 0 s.w_n 0

(** A spawned child joined or a context count moved: re-check the
    owner's completion and retry every parked sync. *)
let ctx_dec (sim : t) (c : sync_ctx) : unit =
  c.live_children <- c.live_children - 1;
  (match c.cx_owner with Some i -> wake_complete sim i | None -> ());
  for i = 0 to c.cx_nw - 1 do
    wake_emit sim c.cx_w_inst.(i) c.cx_w_node.(i)
  done

(* ------------------------------------------------------------------ *)
(* Channel operations                                                   *)

(* Statically allocated 0.0 for constant-token pushes: passing a float
   literal through the array-indexed push API without a fresh box. *)
let f0 = [| 0.0 |]

let fifo_space (f : fifo) = f.ftail - f.fhead < f.fcap

let fifo_push (sim : t) (f : fifo) (tag : int) (num : int)
    (flts : float array) (fi : int) (obj : token) : unit =
  let i = f.ftail land f.fmask in
  f.ftags.(i) <- tag;
  f.fnums.(i) <- num;
  f.fflts.(i) <- flts.(fi);
  f.fobjs.(i) <- obj;
  f.ftail <- f.ftail + 1;
  if not f.f_dirty then begin
    f.f_dirty <- true;
    sim.ld_v <- vpush sim.ld_v sim.ld_n f;
    sim.ld_n <- sim.ld_n + 1
  end

(** Stage every input of [n] into rows [0 ..] of [sc]; false if some
    wired input is empty (rows may be partially staged then).
    Tail-recursive with the verdict threaded as an argument: the hot
    path must not allocate a [ref]. *)
let rec stage_inputs_from (n : node_rt) (sc : Exec.sc) (i : int)
    (ok : bool) : bool =
  if i >= Array.length n.nr_in then ok
  else
    match n.nr_in.(i) with
    | None ->
      sc.Exec.stags.(i) <- n.im_tags.(i);
      sc.Exec.snums.(i) <- n.im_nums.(i);
      sc.Exec.sflts.(i) <- n.im_flts.(i);
      sc.Exec.sobjs.(i) <- n.im_objs.(i);
      stage_inputs_from n sc (i + 1) ok
    | Some f ->
      if f.fmid - f.fhead = 0 then stage_inputs_from n sc (i + 1) false
      else begin
        let j = f.fhead land f.fmask in
        sc.Exec.stags.(i) <- f.ftags.(j);
        sc.Exec.snums.(i) <- f.fnums.(j);
        sc.Exec.sflts.(i) <- f.fflts.(j);
        sc.Exec.sobjs.(i) <- f.fobjs.(j);
        stage_inputs_from n sc (i + 1) ok
      end

let stage_inputs (n : node_rt) (sc : Exec.sc) : bool =
  stage_inputs_from n sc 0 true

(** Stage input [i] only; false if empty. *)
let stage_one (n : node_rt) (sc : Exec.sc) (i : int) : bool =
  match n.nr_in.(i) with
  | None ->
    sc.Exec.stags.(i) <- n.im_tags.(i);
    sc.Exec.snums.(i) <- n.im_nums.(i);
    sc.Exec.sflts.(i) <- n.im_flts.(i);
    sc.Exec.sobjs.(i) <- n.im_objs.(i);
    true
  | Some f ->
    if f.fmid - f.fhead = 0 then false
    else begin
      let j = f.fhead land f.fmask in
      sc.Exec.stags.(i) <- f.ftags.(j);
      sc.Exec.snums.(i) <- f.fnums.(j);
      sc.Exec.sflts.(i) <- f.fflts.(j);
      sc.Exec.sobjs.(i) <- f.fobjs.(j);
      true
    end

let rec all_inputs_ready_from (n : node_rt) (i : int) : bool =
  i >= Array.length n.nr_in
  || (match n.nr_in.(i) with
     | None -> all_inputs_ready_from n (i + 1)
     | Some f -> f.fmid - f.fhead > 0 && all_inputs_ready_from n (i + 1))

let all_inputs_ready (n : node_rt) : bool = all_inputs_ready_from n 0

let input_ready (n : node_rt) (i : int) : bool =
  match n.nr_in.(i) with None -> true | Some f -> f.fmid - f.fhead > 0

let pop_in (sim : t) (n : node_rt) (i : int) : unit =
  match n.nr_in.(i) with
  | None -> ()
  | Some f ->
    f.fhead <- f.fhead + 1;
    (* Space freed: the producer's blocked emission may proceed. *)
    (match f.f_src with
    | Some (si, sn) -> wake_emit sim si sn
    | None -> ())

let pop_all (sim : t) (n : node_rt) : unit =
  for i = 0 to Array.length n.nr_in - 1 do
    pop_in sim n i
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

(* Tasks on a call/spawn cycle need dynamic instances. *)
let dynamic_tasks (c : G.circuit) : bool array =
  let n = List.length c.tasks in
  let reach = Array.make_matrix n n false in
  List.iter
    (fun (t : G.task) ->
      List.iter (fun ch -> reach.(t.tid).(ch) <- true) t.children)
    c.tasks;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  (* A task is dynamic if it lies on a cycle, or is reachable from one
     (its parents may hold unbounded concurrent invocations). *)
  let on_cycle = Array.init n (fun i -> reach.(i).(i)) in
  Array.init n (fun i ->
      on_cycle.(i)
      || List.exists
           (fun j -> on_cycle.(j) && reach.(j).(i))
           (List.init n Fun.id))

let imm_token = function
  | G.Simm v -> v
  | G.Swire -> T.VPoison

let rec pow2_at_least (n : int) (p : int) = if p >= n then p else
  pow2_at_least n (p * 2)

let new_fifo (cap : int) (ninit : int) : fifo =
  let phys = pow2_at_least (max cap (max ninit 1)) 1 in
  { fcap = cap; fmask = phys - 1; ftags = Array.make phys F.tabsent;
    fnums = Array.make phys 0; fflts = Array.make phys 0.0;
    fobjs = Array.make phys F.no_obj; fhead = 0; fmid = 0; ftail = 0;
    f_dirty = false; f_src = None; f_dst = None }

let shape_of_kind = function
  | G.Tload { shape; _ } | G.Tstore { shape; _ } -> Some shape
  | _ -> None

let new_instance (sim : t) (task : G.task) ~(dynamic : bool) : instance =
  let nedges = task.next_eid in
  let fifos = Array.init nedges (fun _ -> new_fifo 1 0) in
  List.iter
    (fun (e : G.edge) ->
      let f = new_fifo e.capacity (List.length e.initial) in
      List.iter
        (fun v ->
          let i = f.ftail land f.fmask in
          f.ftags.(i) <- F.tag_of v;
          f.fnums.(i) <- F.num_of v;
          f.fflts.(i) <- F.flt_of v;
          f.fobjs.(i) <- F.obj_of v;
          f.ftail <- f.ftail + 1;
          f.fmid <- f.ftail)
        e.initial;
      fifos.(e.eid) <- f)
    task.edges;
  let max_nid = task.next_nid in
  let in_map = Hashtbl.create 64 and out_map = Hashtbl.create 64 in
  List.iter
    (fun (e : G.edge) ->
      Hashtbl.replace in_map e.dst e.eid;
      Hashtbl.replace out_map e.src
        (e.eid
        :: (match Hashtbl.find_opt out_map e.src with
           | Some l -> l
           | None -> [])))
    task.edges;
  let mo = sim.max_outstanding in
  let nodes =
    Array.of_list
      (List.map
         (fun (n : G.node) ->
           let arity = Array.length n.ins in
           let nr_in =
             Array.init arity (fun i ->
                 match n.ins.(i) with
                 | G.Simm _ -> None
                 | G.Swire -> (
                   match Hashtbl.find_opt in_map (n.nid, i) with
                   | Some eid -> Some fifos.(eid)
                   | None -> None (* validated: shouldn't happen *)))
           in
           let imms = Array.map imm_token n.ins in
           let outs = G.out_arity n.kind ~call_res:16 in
           let nr_out =
             Array.init (max outs 1) (fun p ->
                 match Hashtbl.find_opt out_map (n.nid, p) with
                 | Some eids ->
                   Array.of_list (List.map (fun e -> fifos.(e)) eids)
                 | None -> [||])
           in
           let is_mem = G.is_memory_node n in
           let nr_words =
             match shape_of_kind n.kind with
             | Some s -> T.shape_words s
             | None -> 1
           in
           let nr_space =
             match n.kind with
             | G.Load { space } | G.Store { space }
             | G.Tload { space; _ } | G.Tstore { space; _ } -> space
             | _ -> 0
           in
           let rs_w =
             match n.kind with
             | G.CallChild tid ->
               List.length sim.tasks.(tid).tk.res_tys
             | G.SpawnChild _ -> 1
             | _ -> 0
           in
           { nr = n; nr_cost = Cost.node_cost n.kind; nr_idx = 0; nr_in;
             im_tags = Array.map F.tag_of imms;
             im_nums = Array.map F.num_of imms;
             im_flts = Array.map F.flt_of imms;
             im_objs = Array.map F.obj_of imms; nr_out; nr_words; nr_space;
             nr_fired = 0; nr_busy_until = 0; np_ready = Array.make 4 0;
             np_port = Array.make 4 0; np_tags = Array.make 4 F.tabsent;
             np_nums = Array.make 4 0; np_flts = Array.make 4 0.0;
             np_objs = Array.make 4 F.no_obj; np_head = 0; np_tail = 0;
             nm_live = (if is_mem then Array.make mo false else [||]);
             nm_store = (if is_mem then Array.make mo false else [||]);
             nm_hasiv = (if is_mem then Array.make mo false else [||]);
             nm_acc = (if is_mem then Array.make mo dummy_access else [||]);
             nm_inv = (if is_mem then Array.make mo dummy_inv else [||]);
             nm_head = 0; nm_tail = 0; na_pool = [||]; na_n = 0; rs_w;
             rs_wave = [||]; rs_tags = [||]; rs_nums = [||]; rs_flts = [||];
             rs_objs = [||]; nr_next_resp = 0; ns_inv = [||]; ns_wave = [||];
             ns_gen = [||];
             ns_head = 0; ns_tail = 0; nr_qfire = false; nr_qemit = false;
             nr_wait_child = false })
         task.nodes)
  in
  Array.iteri (fun i n -> n.nr_idx <- i) nodes;
  let nnodes = Array.length nodes in
  let iid = sim.next_iid in
  sim.next_iid <- iid + 1;
  let iprime = Array.make nedges 0 in
  List.iter
    (fun (e : G.edge) -> iprime.(e.eid) <- List.length e.initial)
    task.edges;
  let ninit =
    List.fold_left
      (fun acc (e : G.edge) -> acc + List.length e.initial)
      0 task.edges
  in
  let i_init_eid = Array.make ninit 0 in
  let i_init_tags = Array.make ninit F.tabsent in
  let i_init_nums = Array.make ninit 0 in
  let i_init_flts = Array.make ninit 0.0 in
  let i_init_objs = Array.make ninit F.no_obj in
  let k = ref 0 in
  List.iter
    (fun (e : G.edge) ->
      List.iter
        (fun v ->
          i_init_eid.(!k) <- e.eid;
          i_init_tags.(!k) <- F.tag_of v;
          i_init_nums.(!k) <- F.num_of v;
          i_init_flts.(!k) <- F.flt_of v;
          i_init_objs.(!k) <- F.obj_of v;
          incr k)
        e.initial)
    task.edges;
  let ipipe_loop =
    (match task.tkind with G.Tloop _ -> true | G.Tfunc -> false)
    && List.for_all
         (fun (n : G.node) ->
           match n.kind with
           | G.Store _ | G.Tstore _ | G.CallChild _ | G.SpawnChild _
           | G.SyncWait -> false
           | _ -> true)
         task.nodes
  in
  let inode_by_id = Array.make (max max_nid 1) None in
  Array.iter (fun nr -> inode_by_id.(nr.nr.G.nid) <- Some nr) nodes;
  let isyncs =
    Array.of_list
      (List.filter
         (fun (n : node_rt) ->
           match n.nr.kind with G.SyncWait -> true | _ -> false)
         (Array.to_list nodes))
  in
  let max_arity =
    Array.fold_left
      (fun acc (n : node_rt) -> max acc (Array.length n.nr_in))
      1 nodes
  in
  let inst =
    { it = task; iid; i_ord = 0; i_slot = 0; inodes = nodes; inode_by_id;
      ififos = fifos; iw_wave = [||]; iw_iv = [||]; i_lo = 0; i_count = 0;
      next_wave = 0; live = true; i_retired = -1; idynamic = dynamic;
      ipipe_loop; iprime; i_init_eid; i_init_tags; i_init_nums;
      i_init_flts; i_init_objs; ij_space = [||]; ij_sr = [||]; ij_head = 0;
      ij_tail = 0; isyncs;
      if_v = Array.make nnodes dummy_node;
      if_v2 = Array.make nnodes dummy_node; if_n = 0;
      ie_v = Array.make nnodes dummy_node;
      ie_v2 = Array.make nnodes dummy_node; ie_n = 0; i_qfire = false;
      i_qemit = false; i_qcomplete = false; i_qjunction = false;
      ivp = [||]; ivp_n = 0; i_nres = List.length task.res_tys;
      i_sc = Exec.make_sc ~slots:((max_arity * 2) + 4);
      i_prof = Ctr.Prof.make ~born:sim.now ~nnodes;
      i_nctr =
        Array.map
          (fun (n : node_rt) ->
            Ctr.node_ctr sim.ctrs ~task:task.tid ~node:n.nr.G.nid)
          nodes }
  in
  (* Back-pointers so channel events can wake producer/consumer. *)
  List.iter
    (fun (e : G.edge) ->
      let f = fifos.(e.eid) in
      (match inode_by_id.(fst e.dst) with
      | Some n -> f.f_dst <- Some (inst, n)
      | None -> ());
      match inode_by_id.(fst e.src) with
      | Some n -> f.f_src <- Some (inst, n)
      | None -> ())
    task.edges;
  sim.live_nodes <- sim.live_nodes + nnodes;
  (* First cycle behaves like a dense sweep over the fresh instance:
     initial loop-control tokens can enable nodes with no other wake
     source. *)
  Array.iter (fun n -> wake_fire sim inst n) nodes;
  inst

(* Rebirth a pooled dynamic instance in place: channels back to their
   primed state, node state cleared, profile reset — no allocation on
   this path beyond worklist growth. *)
let reset_instance (sim : t) (inst : instance) : unit =
  for e = 0 to Array.length inst.ififos - 1 do
    let f = inst.ififos.(e) in
    f.fhead <- 0;
    f.fmid <- 0;
    f.ftail <- 0
  done;
  for k = 0 to Array.length inst.i_init_eid - 1 do
    let f = inst.ififos.(inst.i_init_eid.(k)) in
    let i = f.ftail land f.fmask in
    f.ftags.(i) <- inst.i_init_tags.(k);
    f.fnums.(i) <- inst.i_init_nums.(k);
    f.fflts.(i) <- inst.i_init_flts.(k);
    f.fobjs.(i) <- inst.i_init_objs.(k);
    f.ftail <- f.ftail + 1;
    f.fmid <- f.ftail
  done;
  for i = 0 to Array.length inst.inodes - 1 do
    let n = inst.inodes.(i) in
    n.nr_fired <- 0;
    n.nr_busy_until <- 0;
    n.np_head <- 0;
    n.np_tail <- 0;
    n.nm_head <- 0;
    n.nm_tail <- 0;
    if Array.length n.rs_wave > 0 then
      Array.fill n.rs_wave 0 (Array.length n.rs_wave) (-1);
    n.nr_next_resp <- 0;
    n.ns_head <- 0;
    n.ns_tail <- 0;
    n.nr_qfire <- false;
    n.nr_qemit <- false;
    n.nr_wait_child <- false
  done;
  if Array.length inst.iw_wave > 0 then
    Array.fill inst.iw_wave 0 (Array.length inst.iw_wave) (-1);
  inst.i_lo <- 0;
  inst.i_count <- 0;
  inst.next_wave <- 0;
  inst.ij_head <- 0;
  inst.ij_tail <- 0;
  inst.if_n <- 0;
  inst.ie_n <- 0;
  inst.i_qfire <- false;
  inst.i_qemit <- false;
  inst.i_qcomplete <- false;
  inst.i_qjunction <- false;
  Ctr.Prof.reset inst.i_prof ~born:sim.now;
  inst.live <- true;
  sim.live_nodes <- sim.live_nodes + Array.length inst.inodes;
  for i = 0 to Array.length inst.inodes - 1 do
    wake_fire sim inst inst.inodes.(i)
  done

(* Retired-instance pool ring (FIFO; the head is only reusable once
   its retirement cycle has passed, so staged channel writes from the
   dying cycle have flushed). *)
let pool_put (trt : task_rt) (inst : instance) : unit =
  let cap = Array.length trt.tp_v in
  let n = trt.tp_tail - trt.tp_head in
  if n = cap then begin
    let ncap = max 8 (cap * 2) in
    let nv = Array.make ncap inst in
    for i = 0 to n - 1 do
      nv.(i) <- trt.tp_v.((trt.tp_head + i) mod max cap 1)
    done;
    trt.tp_v <- nv;
    trt.tp_head <- 0;
    trt.tp_tail <- n
  end;
  trt.tp_v.(trt.tp_tail mod Array.length trt.tp_v) <- inst;
  trt.tp_tail <- trt.tp_tail + 1

let acquire_instance (sim : t) (trt : task_rt) : instance =
  if
    trt.tp_tail - trt.tp_head > 0
    && trt.tp_v.(trt.tp_head mod Array.length trt.tp_v).i_retired < sim.now
  then begin
    let inst = trt.tp_v.(trt.tp_head mod Array.length trt.tp_v) in
    trt.tp_head <- trt.tp_head + 1;
    reset_instance sim inst;
    inst
  end
  else begin
    (* Fresh instances register on the task's roster (reborn pooled
       ones already sit there); the roster feeds the final counter
       fold and the deadlock dump. *)
    let inst = new_instance sim trt.tk ~dynamic:true in
    inst.i_slot <- trt.tinst_n;
    trt.tinst <- vpush trt.tinst trt.tinst_n inst;
    trt.tinst_n <- trt.tinst_n + 1;
    inst
  end

let create ?tracer (c : G.circuit) : t =
  Muir_core.Validate.check_exn c;
  let mem = Muir_ir.Memory.create c.prog in
  let ms = Memsys.create c mem in
  let n = List.length c.tasks in
  let dyn = dynamic_tasks c in
  let tasks =
    Array.of_list
      (List.map
         (fun (t : G.task) ->
           { tk = t; t_arity = List.length t.arg_tys;
             t_nres = List.length t.res_tys; tdynamic = dyn.(t.tid);
             tq_tags = [||]; tq_nums = [||]; tq_flts = [||];
             tq_objs = [||]; tq_ctx = [||]; tq_rkind = [||];
             tq_rinst = [||]; tq_rnode = [||]; tq_rwave = [||];
             tq_rctx = [||]; tq_head = 0; tq_tail = 0; tinst = [||];
             tinst_n = 0; tinvocations = 0; tbusy = 0;
             t_fired_now = false; trr = 0; t_next_ord = -1; tf_v = [||];
             tf_v2 = [||]; tf_n = 0; te_v = [||]; te_v2 = [||]; te_n = 0;
             tc_v = [||]; tc_n = 0; tc2 = [||]; tj_v = [||]; tj_v2 = [||];
             tj_n = 0; tw_inst = [||]; tw_node = [||]; tw_n = 0;
             tp_v = [||]; tp_head = 0; tp_tail = 0 })
         c.tasks)
  in
  let ctrs = Ctr.create () in
  let sim =
    { circ = c; ms; tasks; now = 0; fires = 0; last_activity = 0;
      next_iid = 0; root_done = false; root_val = T.VBool true;
      junction_width = Array.init n (fun tid -> G.junction_width c tid);
      max_outstanding = 8;
      wheel =
        Array.init wheel_size (fun _ ->
            { wi = [||]; wn = [||]; wc = [||]; wk = [||]; w_n = 0 });
      ld_v = [||]; ld_n = 0; woken = 0; live_nodes = 0; node_cycles = 0;
      tr = tracer; ctrs;
      otasks = Array.init n (fun tid -> Ctr.occ_ref ctrs (Ctr.Ktask tid));
      ostructs =
        Array.init (Memsys.nstructs ms) (fun i ->
            Ctr.occ_ref ctrs (Ctr.Kstruct (Memsys.struct_sid ms i))) }
  in
  (* Static instances for non-dynamic tasks: one per tile. *)
  Array.iter
    (fun trt ->
      if not trt.tdynamic then
        for k = 0 to trt.tk.tiles - 1 do
          let inst = new_instance sim trt.tk ~dynamic:false in
          inst.i_ord <- k;
          inst.i_slot <- k;
          trt.tinst <- vpush trt.tinst trt.tinst_n inst;
          trt.tinst_n <- trt.tinst_n + 1
        done)
    tasks;
  sim

(* ------------------------------------------------------------------ *)
(* Invocation plumbing                                                  *)

(* Wave table: open-addressed by [wave land (cap-1)] with the wave as
   its own tag.  Live waves occupy a dense window, so a table at least
   as large as the window never collides; grow (rarely) on collision. *)
let rec wv_grow (inst : instance) (ncap : int) : unit =
  let nw = Array.make ncap (-1) in
  let ni = Array.make ncap dummy_inv in
  let ok = ref true in
  Array.iteri
    (fun k w ->
      if w >= 0 && !ok then begin
        let s = w land (ncap - 1) in
        if nw.(s) >= 0 then ok := false
        else begin
          nw.(s) <- w;
          ni.(s) <- inst.iw_iv.(k)
        end
      end)
    inst.iw_wave;
  if !ok then begin
    inst.iw_wave <- nw;
    inst.iw_iv <- ni
  end
  else wv_grow inst (ncap * 2)

let rec wv_insert (inst : instance) (wave : int) (iv : invocation) : unit =
  let cap = Array.length inst.iw_wave in
  if cap = 0 then begin
    inst.iw_wave <- Array.make 8 (-1);
    inst.iw_iv <- Array.make 8 dummy_inv;
    wv_insert inst wave iv
  end
  else begin
    let s = wave land (cap - 1) in
    if inst.iw_wave.(s) < 0 then begin
      inst.iw_wave.(s) <- wave;
      inst.iw_iv.(s) <- iv
    end
    else begin
      wv_grow inst (cap * 2);
      wv_insert inst wave iv
    end
  end

let wv_mem (inst : instance) (wave : int) : bool =
  let cap = Array.length inst.iw_wave in
  cap > 0 && inst.iw_wave.(wave land (cap - 1)) = wave

let wv_get (inst : instance) (wave : int) : invocation =
  inst.iw_iv.(wave land (Array.length inst.iw_wave - 1))

let wv_remove (inst : instance) (wave : int) : unit =
  inst.iw_wave.(wave land (Array.length inst.iw_wave - 1)) <- -1;
  inst.i_count <- inst.i_count - 1

let find_inv (inst : instance) (wave : int) : invocation =
  if wv_mem inst wave then wv_get inst wave
  else
    raise
      (Deadlock
         (Fmt.str "task %s: no inflight invocation for wave %d" inst.it.tname
            wave))

(** Oldest inflight wave (advancing the window's low cursor past
    completed waves), or [-1] if none. *)
let rec oldest_wave_from (inst : instance) (w : int) : int =
  if w >= inst.next_wave then -1
  else if wv_mem inst w then w
  else oldest_wave_from inst (w + 1)

let oldest_wave (inst : instance) : int =
  if inst.i_count = 0 then -1
  else begin
    let w = oldest_wave_from inst inst.i_lo in
    if w >= 0 then inst.i_lo <- w;
    w
  end

(** The invocation a firing of node [n] belongs to.  In function tasks
    every node fires exactly once per wave; in loop tasks only one
    invocation is in flight, so attribution is exact in both cases. *)
let attr_inv (inst : instance) (n : node_rt) : invocation =
  match inst.it.tkind with
  | G.Tfunc -> find_inv inst n.nr_fired
  | G.Tloop _ ->
    let w = oldest_wave inst in
    if w >= 0 then wv_get inst w
    else
      raise
        (Deadlock
           (Fmt.str "loop task %s fired with no inflight invocation"
              inst.it.tname))

(** Can this instance accept another invocation right now? *)
let rec ca_fans (fs : fifo array) (k : int) : bool =
  k >= Array.length fs || (fifo_space fs.(k) && ca_fans fs (k + 1))

let rec ca_ports (outs : fifo array array) (p : int) : bool =
  p >= Array.length outs || (ca_fans outs.(p) 0 && ca_ports outs (p + 1))

let rec ca_nodes (inst : instance) (i : int) : bool =
  i >= Array.length inst.inodes
  || ((match inst.inodes.(i).nr.kind with
      | G.LiveIn _ -> ca_ports inst.inodes.(i).nr_out 0
      | _ -> true)
     && ca_nodes inst (i + 1))

let can_accept (inst : instance) : bool =
  (match inst.it.tkind with
  | G.Tloop _ -> inst.ipipe_loop || inst.i_count = 0
  | G.Tfunc -> true)
  && ca_nodes inst 0

(* Invocation pool: records (and their own sync context, for function
   tasks) are built once per instance and recycled. *)
let new_invocation (inst : instance) : invocation =
  let own =
    match inst.it.tkind with
    | G.Tfunc ->
      Some
        { live_children = 0; cx_owner = Some inst; cx_w_inst = [||];
          cx_w_node = [||]; cx_nw = 0 }
    | G.Tloop _ -> None
  in
  let nres = inst.i_nres in
  { iv_gen = 0; iv_wave = 0; iv_rkind = 0; iv_rinst = dummy_inst;
    iv_rnode = dummy_node;
    iv_rwave = 0; iv_rctx = dummy_ctx; iv_eff_ctx = dummy_ctx; iv_own = own;
    iv_lo_tags = Array.make nres F.tabsent;
    iv_lo_nums = Array.make nres 0; iv_lo_flts = Array.make nres 0.0;
    iv_lo_objs = Array.make nres F.no_obj; iv_stores = 0 }

let acquire_inv (inst : instance) : invocation =
  if inst.ivp_n > 0 then begin
    inst.ivp_n <- inst.ivp_n - 1;
    let iv = inst.ivp.(inst.ivp_n) in
    iv.iv_gen <- iv.iv_gen + 1;
    iv
  end
  else new_invocation inst

let release_inv (inst : instance) (iv : invocation) : unit =
  inst.ivp <- vpush inst.ivp inst.ivp_n iv;
  inst.ivp_n <- inst.ivp_n + 1

(* Response reorder table: same open-addressing discipline as the wave
   table, with [rs_w] token columns per row. *)
let rec resp_grow (n : node_rt) (ncap : int) : unit =
  let w = max n.rs_w 1 in
  let nw = Array.make ncap (-1) in
  let nt = Array.make (ncap * w) F.tabsent in
  let nn = Array.make (ncap * w) 0 in
  let nf = Array.make (ncap * w) 0.0 in
  let no = Array.make (ncap * w) F.no_obj in
  let ok = ref true in
  Array.iteri
    (fun k wv ->
      if wv >= 0 && !ok then begin
        let s = wv land (ncap - 1) in
        if nw.(s) >= 0 then ok := false
        else begin
          nw.(s) <- wv;
          Array.blit n.rs_tags (k * w) nt (s * w) w;
          Array.blit n.rs_nums (k * w) nn (s * w) w;
          Array.blit n.rs_flts (k * w) nf (s * w) w;
          Array.blit n.rs_objs (k * w) no (s * w) w
        end
      end)
    n.rs_wave;
  if !ok then begin
    n.rs_wave <- nw;
    n.rs_tags <- nt;
    n.rs_nums <- nn;
    n.rs_flts <- nf;
    n.rs_objs <- no
  end
  else resp_grow n (ncap * 2)

(** Claim the row for [wave]; the caller fills the token columns at
    [slot * max rs_w 1]. *)
let rec resp_insert (n : node_rt) (wave : int) : int =
  let cap = Array.length n.rs_wave in
  if cap = 0 then begin
    let w = max n.rs_w 1 in
    n.rs_wave <- Array.make 4 (-1);
    n.rs_tags <- Array.make (4 * w) F.tabsent;
    n.rs_nums <- Array.make (4 * w) 0;
    n.rs_flts <- Array.make (4 * w) 0.0;
    n.rs_objs <- Array.make (4 * w) F.no_obj;
    resp_insert n wave
  end
  else begin
    let s = wave land (cap - 1) in
    if n.rs_wave.(s) < 0 || n.rs_wave.(s) = wave then begin
      n.rs_wave.(s) <- wave;
      s
    end
    else begin
      resp_grow n (cap * 2);
      resp_insert n wave
    end
  end

let resp_ready (n : node_rt) (wave : int) : bool =
  let cap = Array.length n.rs_wave in
  cap > 0 && n.rs_wave.(wave land (cap - 1)) = wave

(* Sync-completion ring of (invocation, wave) entries. *)
let sync_push (n : node_rt) (iv : invocation) (wave : int) : unit =
  let cap = Array.length n.ns_wave in
  let m = n.ns_tail - n.ns_head in
  if m = cap then begin
    let ncap = max 4 (cap * 2) in
    let ni = Array.make ncap dummy_inv in
    let nv = Array.make ncap 0 in
    let ng = Array.make ncap 0 in
    for i = 0 to m - 1 do
      let s = (n.ns_head + i) land (cap - 1) in
      ni.(i) <- n.ns_inv.(s);
      nv.(i) <- n.ns_wave.(s);
      ng.(i) <- n.ns_gen.(s)
    done;
    n.ns_inv <- ni;
    n.ns_wave <- nv;
    n.ns_gen <- ng;
    n.ns_head <- 0;
    n.ns_tail <- m
  end;
  let s = n.ns_tail land (Array.length n.ns_wave - 1) in
  n.ns_inv.(s) <- iv;
  n.ns_wave.(s) <- wave;
  n.ns_gen.(s) <- iv.iv_gen;
  n.ns_tail <- n.ns_tail + 1

(* Junction ring of (space, sub-request) entries awaiting arbitration. *)
let dummy_sr : Memsys.subreq = dummy_access.Memsys.a_srs.(0)

let junction_push (inst : instance) (space : int) (sr : Memsys.subreq) : unit
    =
  let cap = Array.length inst.ij_space in
  let m = inst.ij_tail - inst.ij_head in
  if m = cap then begin
    let ncap = max 8 (cap * 2) in
    let nsp = Array.make ncap 0 in
    let nsr = Array.make ncap dummy_sr in
    for i = 0 to m - 1 do
      let s = (inst.ij_head + i) land (cap - 1) in
      nsp.(i) <- inst.ij_space.(s);
      nsr.(i) <- inst.ij_sr.(s)
    done;
    inst.ij_space <- nsp;
    inst.ij_sr <- nsr;
    inst.ij_head <- 0;
    inst.ij_tail <- m
  end;
  let s = inst.ij_tail land (Array.length inst.ij_space - 1) in
  inst.ij_space.(s) <- space;
  inst.ij_sr.(s) <- sr;
  inst.ij_tail <- inst.ij_tail + 1

(* Park a sync node on its join context (dedup by node identity). *)
let rec cx_parked_from (c : sync_ctx) (n : node_rt) (i : int) : bool =
  i < c.cx_nw && (c.cx_w_node.(i) == n || cx_parked_from c n (i + 1))

let cx_park (c : sync_ctx) (inst : instance) (n : node_rt) : unit =
  if not (cx_parked_from c n 0) then begin
    c.cx_w_inst <- vpush c.cx_w_inst c.cx_nw inst;
    c.cx_w_node <- vpush c.cx_w_node c.cx_nw n;
    c.cx_nw <- c.cx_nw + 1
  end

(* Task invocation queue: a ring of flat rows, [t_arity] argument
   columns plus the reply-routing fields. *)
let tq_len (trt : task_rt) : int = trt.tq_tail - trt.tq_head

let tq_grow (trt : task_rt) : unit =
  let cap = Array.length trt.tq_rkind in
  let ncap = max 8 (cap * 2) in
  let ar = max trt.t_arity 1 in
  let n = trt.tq_tail - trt.tq_head in
  let ntags = Array.make (ncap * ar) F.tabsent in
  let nnums = Array.make (ncap * ar) 0 in
  let nflts = Array.make (ncap * ar) 0.0 in
  let nobjs = Array.make (ncap * ar) F.no_obj in
  let nctx = Array.make ncap dummy_ctx in
  let nrk = Array.make ncap 0 in
  let nri = Array.make ncap dummy_inst in
  let nrn = Array.make ncap dummy_node in
  let nrw = Array.make ncap 0 in
  let nrc = Array.make ncap dummy_ctx in
  for i = 0 to n - 1 do
    let s = (trt.tq_head + i) land (cap - 1) in
    Array.blit trt.tq_tags (s * ar) ntags (i * ar) ar;
    Array.blit trt.tq_nums (s * ar) nnums (i * ar) ar;
    Array.blit trt.tq_flts (s * ar) nflts (i * ar) ar;
    Array.blit trt.tq_objs (s * ar) nobjs (i * ar) ar;
    nctx.(i) <- trt.tq_ctx.(s);
    nrk.(i) <- trt.tq_rkind.(s);
    nri.(i) <- trt.tq_rinst.(s);
    nrn.(i) <- trt.tq_rnode.(s);
    nrw.(i) <- trt.tq_rwave.(s);
    nrc.(i) <- trt.tq_rctx.(s)
  done;
  trt.tq_tags <- ntags;
  trt.tq_nums <- nnums;
  trt.tq_flts <- nflts;
  trt.tq_objs <- nobjs;
  trt.tq_ctx <- nctx;
  trt.tq_rkind <- nrk;
  trt.tq_rinst <- nri;
  trt.tq_rnode <- nrn;
  trt.tq_rwave <- nrw;
  trt.tq_rctx <- nrc;
  trt.tq_head <- 0;
  trt.tq_tail <- n

(** Reserve the tail row; the caller fills the argument columns at
    [slot * max t_arity 1]. *)
let tq_push (trt : task_rt) ~(ctx : sync_ctx) ~(rkind : int)
    ~(rinst : instance) ~(rnode : node_rt) ~(rwave : int) ~(rctx : sync_ctx)
    : int =
  if trt.tq_tail - trt.tq_head = Array.length trt.tq_rkind then tq_grow trt;
  let s = trt.tq_tail land (Array.length trt.tq_rkind - 1) in
  trt.tq_ctx.(s) <- ctx;
  trt.tq_rkind.(s) <- rkind;
  trt.tq_rinst.(s) <- rinst;
  trt.tq_rnode.(s) <- rnode;
  trt.tq_rwave.(s) <- rwave;
  trt.tq_rctx.(s) <- rctx;
  trt.tq_tail <- trt.tq_tail + 1;
  s

let inject (sim : t) (trt : task_rt) (inst : instance) (s : int) : unit =
  let wave = inst.next_wave in
  inst.next_wave <- wave + 1;
  trt.tinvocations <- trt.tinvocations + 1;
  let iv = acquire_inv inst in
  iv.iv_wave <- wave;
  iv.iv_rkind <- trt.tq_rkind.(s);
  iv.iv_rinst <- trt.tq_rinst.(s);
  iv.iv_rnode <- trt.tq_rnode.(s);
  iv.iv_rwave <- trt.tq_rwave.(s);
  iv.iv_rctx <- trt.tq_rctx.(s);
  (match iv.iv_own with
  | Some c ->
    c.live_children <- 0;
    c.cx_nw <- 0;
    iv.iv_eff_ctx <- c
  | None -> iv.iv_eff_ctx <- trt.tq_ctx.(s));
  if inst.i_nres > 0 then Array.fill iv.iv_lo_tags 0 inst.i_nres F.tabsent;
  iv.iv_stores <- 0;
  wv_insert inst wave iv;
  inst.i_count <- inst.i_count + 1;
  let base = s * max trt.t_arity 1 in
  for j = 0 to Array.length inst.inodes - 1 do
    let n = inst.inodes.(j) in
    match n.nr.kind with
    | G.LiveIn i ->
      let fs = n.nr_out.(0) in
      if i < trt.t_arity then
        for k = 0 to Array.length fs - 1 do
          fifo_push sim fs.(k) trt.tq_tags.(base + i)
            trt.tq_nums.(base + i) trt.tq_flts
            (base + i)
            trt.tq_objs.(base + i)
        done
      else
        for k = 0 to Array.length fs - 1 do
          fifo_push sim fs.(k) F.tpoison 0 f0 0 F.no_obj
        done
    | _ -> ()
  done;
  wake_complete sim inst;
  sim.last_activity <- sim.now

(** Deliver a completed invocation's live-outs to its parent. *)
let deliver (sim : t) (inst : instance) (iv : invocation) : unit =
  match iv.iv_rkind with
  | 0 ->
    sim.root_done <- true;
    sim.root_val <-
      (if inst.i_nres > 1 then
         F.materialize iv.iv_lo_tags.(1) iv.iv_lo_nums.(1) iv.iv_lo_flts.(1)
           iv.iv_lo_objs.(1)
       else T.VBool true)
  | 1 ->
    let n = iv.iv_rnode in
    let w = max n.rs_w 1 in
    let s = resp_insert n iv.iv_rwave in
    let k = min n.rs_w inst.i_nres in
    Array.blit iv.iv_lo_tags 0 n.rs_tags (s * w) k;
    Array.blit iv.iv_lo_nums 0 n.rs_nums (s * w) k;
    Array.blit iv.iv_lo_flts 0 n.rs_flts (s * w) k;
    Array.blit iv.iv_lo_objs 0 n.rs_objs (s * w) k;
    wake_emit sim iv.iv_rinst n
  | _ ->
    ctx_dec sim iv.iv_rctx;
    let n = iv.iv_rnode in
    let s = resp_insert n iv.iv_rwave in
    if inst.i_nres > 1 then begin
      n.rs_tags.(s) <- iv.iv_lo_tags.(1);
      n.rs_nums.(s) <- iv.iv_lo_nums.(1);
      n.rs_flts.(s) <- iv.iv_lo_flts.(1);
      n.rs_objs.(s) <- iv.iv_lo_objs.(1)
    end
    else begin
      n.rs_tags.(s) <- F.ttrue;
      n.rs_nums.(s) <- 0;
      n.rs_flts.(s) <- 0.0;
      n.rs_objs.(s) <- F.no_obj
    end;
    wake_emit sim iv.iv_rinst n

(** A function-task wave is fully fired once every node (live-ins are
    driven by injection) has consumed it — this is exact because every
    node fires exactly once per wave in a predicated hyperblock. *)
let rec wave_fully_fired_from (inst : instance) (wave : int) (i : int) :
    bool =
  i >= Array.length inst.inodes
  || (let n = inst.inodes.(i) in
      (match n.nr.kind with
      | G.LiveIn _ -> true
      | G.CallChild _ | G.SpawnChild _ ->
        (* The child invoked for this wave must itself have completed
           (its response emitted in order): a void call's side effects
           otherwise race ahead of the caller's completion. *)
        n.nr_fired > wave && n.nr_next_resp > wave
      | _ -> n.nr_fired > wave)
      && wave_fully_fired_from inst wave (i + 1))

let wave_fully_fired (inst : instance) (wave : int) : bool =
  wave_fully_fired_from inst wave 0

(** A loop instance is quiescent when every token at rest sits on a
    primed edge (loop-control or ordering back edges) at its resting
    count and no node holds in-flight work.  Mid-invocation the
    carried values necessarily occupy other channels or pipelines, so
    quiescence is equivalent to "the invocation has fully drained". *)
let rec no_live_resp (n : node_rt) (k : int) : bool =
  k >= Array.length n.rs_wave
  || (n.rs_wave.(k) < 0 && no_live_resp n (k + 1))

let rec lq_nodes_from (inst : instance) (i : int) : bool =
  i >= Array.length inst.inodes
  || (let n = inst.inodes.(i) in
      n.np_tail - n.np_head = 0
      && n.nm_tail - n.nm_head = 0
      && no_live_resp n 0
      && n.ns_tail - n.ns_head = 0
      && (match n.nr.kind with
         | G.CallChild _ | G.SpawnChild _ -> n.nr_next_resp = n.nr_fired
         | _ -> true)
      && lq_nodes_from inst (i + 1))

let rec lq_fifos_from (inst : instance) (e : int) : bool =
  e >= Array.length inst.ififos
  || (let f = inst.ififos.(e) in
      f.ftail - f.fhead = inst.iprime.(e) && lq_fifos_from inst (e + 1))

let loop_quiescent (inst : instance) : bool =
  lq_nodes_from inst 0
  && inst.ij_tail - inst.ij_head = 0
  && lq_fifos_from inst 0

let rec lo_ready_from (iv : invocation) (nres : int) (k : int) : bool =
  k >= nres
  || (iv.iv_lo_tags.(k) <> F.tabsent && lo_ready_from iv nres (k + 1))

(* Scan waves [w, next_wave) for completions; returns how many
   completed.  Tail-recursive — the counter rides in an argument. *)
let rec complete_scan (sim : t) (inst : instance) (w : int)
    (completed : int) : int =
  if w >= inst.next_wave then completed
  else
    let completed =
      if
        wv_mem inst w
        &&
        let iv = wv_get inst w in
        lo_ready_from iv inst.i_nres 0
        && iv.iv_stores = 0
        && (match iv.iv_own with
           | Some c -> c.live_children = 0
           | None -> true)
        && (match inst.it.tkind with
           | G.Tfunc -> wave_fully_fired inst w
           | G.Tloop _ ->
             (* leaf loops have no side effects to wait for: the
                live-out tuple is the whole observable result *)
             inst.ipipe_loop || loop_quiescent inst)
      then begin
        let iv = wv_get inst w in
        wv_remove inst w;
        sim.last_activity <- sim.now;
        deliver sim inst iv;
        release_inv inst iv;
        completed + 1
      end
      else completed
    in
    complete_scan sim inst (w + 1) completed

let try_complete (sim : t) (trt : task_rt) (inst : instance) : unit =
  let completed = complete_scan sim inst inst.i_lo 0 in
  if completed > 0 then begin
    while inst.i_lo < inst.next_wave && not (wv_mem inst inst.i_lo) do
      inst.i_lo <- inst.i_lo + 1
    done;
    if inst.i_count = 0 then begin
      (* Invocation drained: every node is idle from the next cycle.
         A retiring dynamic instance also folds its accounting into
         the whole-run counter bank here, before it returns to the
         instance pool. *)
      let ip = inst.i_prof in
      for i = 0 to Array.length ip.nprofs - 1 do
        ignore
          (Ctr.Prof.transition ip.nprofs.(i) (Ctr.cause_index Ctr.Idle)
             (sim.now + 1))
      done;
      if inst.idynamic then begin
        for i = 0 to Array.length ip.nprofs - 1 do
          Ctr.fold_into inst.i_nctr.(i)
            ~fires:inst.inodes.(i).nr_fired ~born:ip.born
            ~upto:(sim.now + 1)
            ip.nprofs.(i)
        done;
        inst.live <- false;
        inst.i_retired <- sim.now;
        sim.live_nodes <- sim.live_nodes - Array.length inst.inodes;
        pool_put trt inst
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Node firing (phase A)                                                *)

(* Push a result into the 4-slot pipeline ring.  Callers check
   occupancy first. *)
(* The float rides as [flts.(fi)] rather than a bare [float]: a float
   argument to a non-inlined call is boxed at the boundary (2-3 minor
   words per token), while an array-to-array move stays unboxed. *)
let pipe_push (n : node_rt) (ready : int) (port : int) (tag : int)
    (num : int) (flts : float array) (fi : int) (obj : token) : unit =
  let s = n.np_tail land 3 in
  n.np_ready.(s) <- ready;
  n.np_port.(s) <- port;
  n.np_tags.(s) <- tag;
  n.np_nums.(s) <- num;
  n.np_flts.(s) <- flts.(fi);
  n.np_objs.(s) <- obj;
  n.np_tail <- n.np_tail + 1

(** Could the node fire again with the tokens already committed?  Used
    to self-schedule a re-attempt after a successful firing — no other
    event will arrive for tokens that are already there. *)
let ready_again (n : node_rt) : bool =
  match n.nr.kind with
  | G.LiveIn _ -> false
  | G.MergeLoop ->
    input_ready n 0
    && (let sel =
          match n.nr_in.(0) with
          | None ->
            if Exec.truthy_flat n.im_tags.(0) n.im_nums.(0) n.im_objs.(0)
            then 2
            else 1
          | Some f ->
            let j = f.fhead land f.fmask in
            if Exec.truthy_flat f.ftags.(j) f.fnums.(j) f.fobjs.(j) then 2
            else 1
        in
        input_ready n sel)
  | _ -> all_inputs_ready n

let zeros4 = Array.make 4 0.0

(** Attempt to fire node [n] of [inst]; true if it fired.  A failed
    attempt has no side effects beyond (re)subscribing the node to the
    event that can unblock it.  All operand staging goes through the
    instance's flat scratch [i_sc]; nothing here allocates. *)
let try_fire (sim : t) (inst : instance) (n : node_rt) : bool =
  let now = sim.now in
  if n.nr_busy_until > now then begin
    (* Sleeping on the initiation interval: retry when it expires. *)
    at sim n.nr_busy_until inst n 0;
    false
  end
  else
    match n.nr.kind with
    | G.LiveIn _ -> false (* driven by injection *)
    | G.MergeLoop ->
      (* Consume ctl, then the selected data input only. *)
      let sc = inst.i_sc in
      if not (stage_one n sc 0) then false
      else begin
        let sel =
          if Exec.truthy_flat sc.Exec.stags.(0) sc.Exec.snums.(0)
               sc.Exec.sobjs.(0)
          then 2
          else 1
        in
        if not (stage_one n sc sel) then false
        else if n.np_tail - n.np_head >= 4 then false
        else begin
          pop_in sim n 0;
          pop_in sim n sel;
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.stags.(sel)
            sc.Exec.snums.(sel) sc.Exec.sflts sel sc.Exec.sobjs.(sel);
          n.nr_fired <- n.nr_fired + 1;
          true
        end
      end
    | _ ->
      if not (all_inputs_ready n) then false
      else if n.np_tail - n.np_head >= 4 && not (G.is_memory_node n.nr) then
        false
      else begin
        match n.nr.kind with
        | G.Compute op ->
          let sc = inst.i_sc in
          ignore (stage_inputs n sc);
          pop_all sim n;
          Exec.compute_sc sc op 0 (Array.length n.nr_in);
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Fused ops ->
          let sc = inst.i_sc in
          ignore (stage_inputs n sc);
          pop_all sim n;
          Exec.fused_sc sc ops (Array.length n.nr_in);
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Merge k ->
          let sc = inst.i_sc in
          ignore (stage_inputs n sc);
          pop_all sim n;
          Exec.merge_sc sc k (Array.length n.nr_in);
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Steer ->
          let sc = inst.i_sc in
          ignore (stage_inputs n sc);
          pop_all sim n;
          let port =
            if Exec.truthy_flat sc.Exec.stags.(0) sc.Exec.snums.(0)
                 sc.Exec.sobjs.(0)
            then 0
            else 1
          in
          pipe_push n (now + n.nr_cost.latency - 1) port sc.Exec.stags.(1)
            sc.Exec.snums.(1) sc.Exec.sflts 1 sc.Exec.sobjs.(1);
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.FusedSteer ops ->
          let sc = inst.i_sc in
          ignore (stage_inputs n sc);
          pop_all sim n;
          let p =
            Exec.truthy_flat sc.Exec.stags.(0) sc.Exec.snums.(0)
              sc.Exec.sobjs.(0)
          in
          (* The chain's operands are inputs 1..: shift them down. *)
          let ar = Array.length n.nr_in in
          for i = 0 to ar - 2 do
            sc.Exec.stags.(i) <- sc.Exec.stags.(i + 1);
            sc.Exec.snums.(i) <- sc.Exec.snums.(i + 1);
            sc.Exec.sflts.(i) <- sc.Exec.sflts.(i + 1);
            sc.Exec.sobjs.(i) <- sc.Exec.sobjs.(i + 1)
          done;
          Exec.fused_sc sc ops (ar - 1);
          let port = if p then 0 else 1 in
          pipe_push n (now + n.nr_cost.latency - 1) port sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Tcompute { top; _ } ->
          (* Tensor ops produce boxed tiles anyway; the slow path is
             fine here. *)
          let sc = inst.i_sc in
          ignore (stage_inputs n sc);
          pop_all sim n;
          let v = Exec.tensor top (Exec.slot_values sc 0 (Array.length n.nr_in)) in
          sc.Exec.rflt.(0) <- F.flt_of v;
          pipe_push n (now + n.nr_cost.latency - 1) 0 (F.tag_of v)
            (F.num_of v) sc.Exec.rflt 0 (F.obj_of v);
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ ->
          if n.nm_tail - n.nm_head >= sim.max_outstanding then false
          else begin
            let is_store =
              match n.nr.kind with
              | G.Store _ | G.Tstore _ -> true
              | _ -> false
            in
            (* Attribution: stores pin their invocation; loads only
               advance the oldest-wave cursor (the original never read
               a load's attribution). *)
            let iv = if is_store then attr_inv inst n else dummy_inv in
            if not is_store then ignore (oldest_wave inst);
            let sc = inst.i_sc in
            ignore (stage_inputs n sc);
            let pred_ok =
              Exec.truthy_flat sc.Exec.stags.(0) sc.Exec.snums.(0)
                sc.Exec.sobjs.(0)
            in
            let addr_tag = sc.Exec.stags.(1) in
            let addr =
              Exec.to_int_flat sc.Exec.stags.(1) sc.Exec.snums.(1)
                sc.Exec.sobjs.(1)
            in
            pop_all sim n;
            let s = n.nm_tail land (Array.length n.nm_live - 1) in
            if pred_ok && addr_tag <> F.tpoison then begin
              let a =
                if n.na_n > 0 then begin
                  n.na_n <- n.na_n - 1;
                  n.na_pool.(n.na_n)
                end
                else begin
                  let a = Memsys.make_access ~words:n.nr_words ~notify:ignore in
                  (* The closure is created once per pooled access and
                     lives as long as it does.  Orphaned accesses
                     (write-buffered stores popped before their banks
                     drained) return to the pool on completion instead
                     of waking the node. *)
                  a.Memsys.a_notify <-
                    (fun () ->
                      if a.Memsys.a_orphan then begin
                        n.na_pool <- vpush n.na_pool n.na_n a;
                        n.na_n <- n.na_n + 1
                      end
                      else wake_emit sim inst n);
                  a
                end
              in
              Memsys.reset_access a ~is_store ~now;
              (match n.nr.kind with
              | G.Load _ ->
                a.Memsys.a_n <- 1;
                a.Memsys.a_addrs.(0) <- addr
              | G.Store _ ->
                a.Memsys.a_n <- 1;
                a.Memsys.a_addrs.(0) <- addr;
                a.Memsys.a_tags.(0) <- sc.Exec.stags.(2);
                a.Memsys.a_nums.(0) <- sc.Exec.snums.(2);
                a.Memsys.a_flts.(0) <- sc.Exec.sflts.(2);
                a.Memsys.a_objs.(0) <- sc.Exec.sobjs.(2)
              | G.Tload { shape; _ } ->
                let stride =
                  Exec.to_int_flat sc.Exec.stags.(2) sc.Exec.snums.(2)
                    sc.Exec.sobjs.(2)
                in
                let w = T.shape_words shape in
                a.Memsys.a_n <- w;
                for i = 0 to w - 1 do
                  let r = i / shape.cols and c = i mod shape.cols in
                  a.Memsys.a_addrs.(i) <- addr + (r * stride) + c
                done
              | G.Tstore { shape; _ } ->
                let stride =
                  Exec.to_int_flat sc.Exec.stags.(2) sc.Exec.snums.(2)
                    sc.Exec.sobjs.(2)
                in
                let tile =
                  match sc.Exec.sobjs.(3) with
                  | T.VTensor t -> t
                  | _ -> zeros4
                in
                let w = T.shape_words shape in
                a.Memsys.a_n <- w;
                for i = 0 to w - 1 do
                  let r = i / shape.cols and c = i mod shape.cols in
                  a.Memsys.a_addrs.(i) <- addr + (r * stride) + c;
                  a.Memsys.a_tags.(i) <- F.tfloat;
                  a.Memsys.a_nums.(i) <- 0;
                  a.Memsys.a_flts.(i) <- tile.(i);
                  a.Memsys.a_objs.(i) <- F.no_obj
                done
              | _ -> assert false);
              let rt = sim.ms.Memsys.space_of n.nr_space in
              Memsys.split rt a;
              let buffered = is_store && Memsys.store_buffered rt in
              if is_store && not buffered then
                iv.iv_stores <- iv.iv_stores + 1;
              for j = 0 to a.Memsys.a_nsrs - 1 do
                junction_push inst n.nr_space a.Memsys.a_srs.(j)
              done;
              (* write-back buffer: the store is architecturally done
                 the moment the buffer accepts it; it drains to the
                 bank in FIFO order behind this point *)
              if buffered then a.Memsys.a_done <- true;
              n.nm_live.(s) <- true;
              n.nm_store.(s) <- is_store;
              n.nm_hasiv.(s) <- is_store;
              n.nm_acc.(s) <- a;
              n.nm_inv.(s) <- iv
            end
            else begin
              (* Predicated off (or poison address): a gated entry
                 flows through the window without touching memory. *)
              n.nm_live.(s) <- false;
              n.nm_store.(s) <- is_store;
              n.nm_hasiv.(s) <- is_store;
              n.nm_acc.(s) <- dummy_access;
              n.nm_inv.(s) <- iv
            end;
            n.nm_tail <- n.nm_tail + 1;
            n.nr_busy_until <- now + n.nr_cost.ii;
            n.nr_fired <- n.nr_fired + 1;
            true
          end
        | G.CallChild tid | G.SpawnChild tid ->
          let sc = inst.i_sc in
          ignore (stage_inputs n sc);
          let pred_ok =
            Exec.truthy_flat sc.Exec.stags.(0) sc.Exec.snums.(0)
              sc.Exec.sobjs.(0)
          in
          let child = sim.tasks.(tid) in
          let is_spawn =
            match n.nr.kind with G.SpawnChild _ -> true | _ -> false
          in
          let queue_cap = child.tk.queue_depth * max child.tk.tiles 1 in
          if pred_ok && tq_len child >= queue_cap && not child.tdynamic
          then begin
            (* Park on the child's full queue; its dispatch pops us
               back onto the worklist. *)
            if not n.nr_wait_child then begin
              n.nr_wait_child <- true;
              child.tw_inst <- vpush child.tw_inst child.tw_n inst;
              child.tw_node <- vpush child.tw_node child.tw_n n;
              child.tw_n <- child.tw_n + 1
            end;
            false
          end
          else begin
            let wave = n.nr_fired in
            let iv = attr_inv inst n in
            let nin = Array.length n.nr_in in
            pop_all sim n;
            if pred_ok then begin
              let eff = iv.iv_eff_ctx in
              let rkind =
                if is_spawn then begin
                  eff.live_children <- eff.live_children + 1;
                  2
                end
                else 1
              in
              let s =
                tq_push child ~ctx:eff ~rkind ~rinst:inst ~rnode:n
                  ~rwave:wave ~rctx:eff
              in
              let base = s * max child.t_arity 1 in
              for i = 0 to child.t_arity - 1 do
                if i = 0 then begin
                  child.tq_tags.(base) <- F.ttrue;
                  child.tq_nums.(base) <- 0;
                  child.tq_flts.(base) <- 0.0;
                  child.tq_objs.(base) <- F.no_obj
                end
                else if i < nin then begin
                  child.tq_tags.(base + i) <- sc.Exec.stags.(i);
                  child.tq_nums.(base + i) <- sc.Exec.snums.(i);
                  child.tq_flts.(base + i) <- sc.Exec.sflts.(i);
                  child.tq_objs.(base + i) <- sc.Exec.sobjs.(i)
                end
                else begin
                  child.tq_tags.(base + i) <- F.tpoison;
                  child.tq_nums.(base + i) <- 0;
                  child.tq_flts.(base + i) <- 0.0;
                  child.tq_objs.(base + i) <- F.no_obj
                end
              done
            end
            else begin
              (* Predicated off: synthesize an immediate response. *)
              let s = resp_insert n wave in
              let w = max n.rs_w 1 in
              if is_spawn then begin
                n.rs_tags.(s * w) <- F.tpoison;
                n.rs_nums.(s * w) <- 0;
                n.rs_flts.(s * w) <- 0.0;
                n.rs_objs.(s * w) <- F.no_obj
              end
              else
                for k = 0 to n.rs_w - 1 do
                  n.rs_tags.((s * w) + k) <-
                    (if k = 0 then F.tfalse else F.tpoison);
                  n.rs_nums.((s * w) + k) <- 0;
                  n.rs_flts.((s * w) + k) <- 0.0;
                  n.rs_objs.((s * w) + k) <- F.no_obj
                done
            end;
            n.nr_busy_until <- now + n.nr_cost.ii;
            n.nr_fired <- n.nr_fired + 1;
            true
          end
        | G.SyncWait ->
          let iv = attr_inv inst n in
          pop_all sim n;
          sync_push n iv n.nr_fired;
          (* Park on the join context: each child completion retries
             the sync's emission. *)
          cx_park iv.iv_eff_ctx inst n;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.LiveOut idx ->
          let sc = inst.i_sc in
          ignore (stage_one n sc 0);
          let iv =
            match inst.it.tkind with
            | G.Tfunc -> find_inv inst n.nr_fired
            | G.Tloop _ -> attr_inv inst n
          in
          pop_all sim n;
          iv.iv_lo_tags.(idx) <- sc.Exec.stags.(0);
          iv.iv_lo_nums.(idx) <- sc.Exec.snums.(0);
          iv.iv_lo_flts.(idx) <- sc.Exec.sflts.(0);
          iv.iv_lo_objs.(idx) <- sc.Exec.sobjs.(0);
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.LiveIn _ | G.MergeLoop -> assert false
      end

(* ------------------------------------------------------------------ *)
(* Stall classification (always-on)                                     *)

(* Why did this woken node fail to fire?  Mirrors [try_fire]'s failure
   paths; a failed attempt has no side effects, so re-inspecting the
   state after the attempt is exact. *)
let stall_cause (sim : t) (n : node_rt) : Ctr.cause =
  if n.nr_busy_until > sim.now then Ctr.Structural
  else
    match n.nr.kind with
    | G.LiveIn _ -> Ctr.Idle (* driven by injection, never stalled *)
    | G.MergeLoop ->
      if not (input_ready n 0) then Ctr.Operand
      else begin
        let t, m, o =
          match n.nr_in.(0) with
          | None -> (n.im_tags.(0), n.im_nums.(0), n.im_objs.(0))
          | Some f ->
            let j = f.fhead land f.fmask in
            (f.ftags.(j), f.fnums.(j), f.fobjs.(j))
        in
        if not (input_ready n (if Exec.truthy_flat t m o then 2 else 1))
        then Ctr.Operand
        else Ctr.Backpressure
      end
    | _ ->
      if not (all_inputs_ready n) then Ctr.Operand
      else if n.np_tail - n.np_head >= 4 && not (G.is_memory_node n.nr)
      then Ctr.Backpressure
      else (
        match n.nr.kind with
        | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ -> Ctr.Memory
        | G.CallChild _ | G.SpawnChild _ -> Ctr.Structural
        | _ -> Ctr.Operand)

(* The label a node enters after firing at [sim.now], effective from
   [sim.now + 1].  Any event that changes the node's state relabels it,
   so this only has to be right for the state as left by the firing. *)
let post_fire_cause (sim : t) (n : node_rt) (ra : bool) : Ctr.cause =
  match n.nr.kind with
  | G.SyncWait -> Ctr.Sync
  | _ ->
    if not ra then Ctr.Operand
    else if n.nr_busy_until > sim.now + 1 then Ctr.Structural
    else (
      match n.nr.kind with
      | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ ->
        if n.nm_tail - n.nm_head >= sim.max_outstanding then Ctr.Memory
        else Ctr.Busy
      | _ ->
        if n.np_tail - n.np_head >= 4 then Ctr.Backpressure else Ctr.Busy)

(** Fire attempt plus the event subscriptions a success implies. *)
let fire_node (sim : t) (trt : task_rt) (inst : instance) (n : node_rt) :
    bool =
  let fired = try_fire sim inst n in
  (* Interval accounting is always-on (it feeds the counter bank); the
     ring only sees events when a tracer is attached. *)
  let np = inst.i_prof.Ctr.Prof.nprofs.(n.nr_idx) in
  let ra = fired && ready_again n in
  if fired then begin
    ignore (Ctr.Prof.transition np (Ctr.cause_index Ctr.Busy) sim.now);
    ignore
      (Ctr.Prof.transition np
         (Ctr.cause_index (post_fire_cause sim n ra))
         (sim.now + 1));
    match sim.tr with
    | Some tr ->
      Tr.emit tr
        (Tr.Efire
           { c = sim.now; task = inst.it.tid; inst = inst.iid;
             node = n.nr.nid; lat = n.nr_cost.latency })
    | None -> ()
  end
  else begin
    let cause = stall_cause sim n in
    let changed = Ctr.Prof.transition np (Ctr.cause_index cause) sim.now in
    match sim.tr with
    | Some tr when changed && cause <> Ctr.Idle ->
      Tr.emit tr
        (Tr.Estall
           { c = sim.now; task = inst.it.tid; inst = inst.iid;
             node = n.nr.nid; cause })
    | _ -> ()
  end;
  if fired then begin
    sim.fires <- sim.fires + 1;
    sim.last_activity <- sim.now;
    trt.t_fired_now <- true;
    (* The firing may have produced something to emit this very cycle
       and may have changed the instance's completion conditions. *)
    wake_emit sim inst n;
    wake_complete sim inst;
    (match n.nr.kind with
    | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ ->
      wake_junction sim inst
    | G.SpawnChild _ ->
      sim.ctrs.Ctr.spawns <- sim.ctrs.Ctr.spawns + 1;
      (* spawns_issued moved: parked syncs may now be able to pass *)
      for k = 0 to Array.length inst.isyncs - 1 do
        wake_emit sim inst inst.isyncs.(k)
      done
    | _ -> ());
    (* Tokens already committed can enable the next firing without any
       further event: self-schedule past the initiation interval. *)
    if ra then at sim (max n.nr_busy_until (sim.now + 1)) inst n 0;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Emission (phase B)                                                   *)

let rec port_space_from (fs : fifo array) (k : int) : bool =
  k >= Array.length fs || (fifo_space fs.(k) && port_space_from fs (k + 1))

let port_space (n : node_rt) (p : int) : bool =
  port_space_from n.nr_out.(p) 0

let emit_port (sim : t) (n : node_rt) (p : int) (tag : int) (num : int)
    (flts : float array) (fi : int) (obj : token) : unit =
  let fs = n.nr_out.(p) in
  for k = 0 to Array.length fs - 1 do
    fifo_push sim fs.(k) tag num flts fi obj
  done

(* The emission drains below are top-level and tail-recursive, each
   threading its progress flag as an argument: defined locally to
   [try_emit] they would allocate a closure per node per cycle. *)

(* Pipeline outputs (in order). *)
let rec drain_pipe (sim : t) (n : node_rt) (progressed : bool) : bool =
  if n.np_tail - n.np_head > 0 then begin
    let s = n.np_head land 3 in
    if n.np_ready.(s) <= sim.now && port_space n n.np_port.(s) then begin
      n.np_head <- n.np_head + 1;
      emit_port sim n n.np_port.(s) n.np_tags.(s) n.np_nums.(s) n.np_flts
        s n.np_objs.(s);
      drain_pipe sim n true
    end
    else progressed
  end
  else progressed

(* Memory responses (FIFO per node).  [sc] is the owning instance's
   flat scratch — tile assembly parks its float there so nothing is
   boxed on the way to the ports. *)
let rec drain_mem (sim : t) (sc : Exec.sc) (n : node_rt)
    (progressed : bool) : bool =
  if n.nm_tail - n.nm_head > 0 then begin
    let mm = Array.length n.nm_live - 1 in
    let s = n.nm_head land mm in
    let live = n.nm_live.(s) in
    if (not live) || n.nm_acc.(s).Memsys.a_done then begin
      let is_load =
        match n.nr.kind with
        | G.Load _ | G.Tload _ -> true
        | _ -> false
      in
      let space =
        if is_load then port_space n 0 && port_space n 1
        else port_space n 0
      in
      if space then begin
        let a = n.nm_acc.(s) in
        n.nm_head <- n.nm_head + 1;
        if n.nm_store.(s) && live then begin
          let iv = n.nm_inv.(s) in
          if iv.iv_stores > 0 then iv.iv_stores <- iv.iv_stores - 1
        end;
        (match n.nr.kind, live with
        | (G.Load _ | G.Tload _), false ->
          (* gated: poison data, ack false *)
          emit_port sim n 0 F.tpoison 0 f0 0 F.no_obj;
          emit_port sim n 1 F.tfalse 0 f0 0 F.no_obj
        | G.Load _, true ->
          emit_port sim n 0 a.Memsys.a_tags.(0) a.Memsys.a_nums.(0)
            a.Memsys.a_flts 0 a.Memsys.a_objs.(0);
          emit_port sim n 1 F.ttrue 0 f0 0 F.no_obj
        | G.Tload _, true ->
          let v = Memsys.tile_value a in
          sc.Exec.rflt.(0) <- F.flt_of v;
          emit_port sim n 0 (F.tag_of v) (F.num_of v) sc.Exec.rflt 0
            (F.obj_of v);
          emit_port sim n 1 F.ttrue 0 f0 0 F.no_obj
        | (G.Store _ | G.Tstore _), false ->
          emit_port sim n 0 F.tfalse 0 f0 0 F.no_obj
        | (G.Store _ | G.Tstore _), true ->
          emit_port sim n 0 F.ttrue 0 f0 0 F.no_obj
        | _ -> assert false);
        (* Recycle the access: banks still draining a write-buffered
           store keep it as an orphan and return it on completion. *)
        if live then begin
          if a.Memsys.a_pending <= 0 then begin
            n.na_pool <- vpush n.na_pool n.na_n a;
            n.na_n <- n.na_n + 1
          end
          else a.Memsys.a_orphan <- true
        end;
        drain_mem sim sc n true
      end
      else progressed
    end
    else progressed
  end
  else progressed

let rec ports_free (n : node_rt) (p : int) (k : int) : bool =
  p >= k || (port_space n p && ports_free n (p + 1) k)

(* Call/spawn responses in wave order. *)
let rec drain_resp (sim : t) (n : node_rt) (progressed : bool) : bool =
  if resp_ready n n.nr_next_resp then begin
    let cap = Array.length n.rs_wave in
    let s = n.nr_next_resp land (cap - 1) in
    let w = max n.rs_w 1 in
    let k = min n.rs_w (Array.length n.nr_out) in
    if ports_free n 0 k then begin
      n.rs_wave.(s) <- -1;
      n.nr_next_resp <- n.nr_next_resp + 1;
      for p = 0 to k - 1 do
        emit_port sim n p
          n.rs_tags.((s * w) + p)
          n.rs_nums.((s * w) + p)
          n.rs_flts
          ((s * w) + p)
          n.rs_objs.((s * w) + p)
      done;
      drain_resp sim n true
    end
    else progressed
  end
  else progressed

(* A sync of wave [w] may only complete once every spawn of the task
   has issued wave [w]'s spawns — otherwise it could observe a
   transiently-zero child count before the children were even
   created. *)
let rec spawns_issued_from (inst : instance) (wave : int) (i : int) : bool
    =
  i >= Array.length inst.inodes
  || ((match inst.inodes.(i).nr.kind with
      | G.SpawnChild _ -> inst.inodes.(i).nr_fired > wave
      | _ -> true)
     && spawns_issued_from inst wave (i + 1))

(* Sync completions, in order. *)
let rec drain_sync (sim : t) (inst : instance) (n : node_rt)
    (progressed : bool) : bool =
  if n.ns_tail - n.ns_head > 0 then begin
    let s = n.ns_head land (Array.length n.ns_wave - 1) in
    let iv = n.ns_inv.(s) in
    let wave = n.ns_wave.(s) in
    (* A stale entry (its invocation completed and was reused while
       the emission was backpressured) behaves like the completed
       invocation it referenced: zero live children. *)
    let children_ok =
      iv.iv_gen <> n.ns_gen.(s) || iv.iv_eff_ctx.live_children = 0
    in
    if spawns_issued_from inst wave 0 && children_ok && port_space n 0
    then begin
      n.ns_head <- n.ns_head + 1;
      sim.ctrs.Ctr.syncs <- sim.ctrs.Ctr.syncs + 1;
      emit_port sim n 0 F.ttrue 0 f0 0 F.no_obj;
      drain_sync sim inst n true
    end
    else progressed
  end
  else progressed

let try_emit (sim : t) (inst : instance) (n : node_rt) : bool =
  let progressed = drain_pipe sim n false in
  let progressed = drain_mem sim inst.i_sc n progressed in
  let progressed = drain_resp sim n progressed in
  let progressed = drain_sync sim inst n progressed in
  (* Whatever is still pipelined wakes the node on its due cycle. *)
  (if n.np_tail - n.np_head > 0 then
     let ready = n.np_ready.(n.np_head land 3) in
     if ready > sim.now then at sim ready inst n 1);
  progressed

(* ------------------------------------------------------------------ *)
(* The main loop                                                        *)

(* Pull a worklist by swapping its double buffer: the taken prefix
   lives in [*_v2], new wakes land in the other buffer for the next
   cycle.  Sorting restores the dense sweep's deterministic order. *)
let take_fire_nodes (inst : instance) : int =
  let n = inst.if_n in
  let v = inst.if_v in
  inst.if_v <- inst.if_v2;
  inst.if_v2 <- v;
  inst.if_n <- 0;
  for i = 0 to n - 1 do
    v.(i).nr_qfire <- false
  done;
  sort_nodes v n;
  n

let take_emit_nodes (inst : instance) : int =
  let n = inst.ie_n in
  let v = inst.ie_v in
  inst.ie_v <- inst.ie_v2;
  inst.ie_v2 <- v;
  inst.ie_n <- 0;
  for i = 0 to n - 1 do
    v.(i).nr_qemit <- false
  done;
  sort_nodes v n;
  n

let take_tf (trt : task_rt) : int =
  let n = trt.tf_n in
  let v = trt.tf_v in
  trt.tf_v <- trt.tf_v2;
  trt.tf_v2 <- v;
  trt.tf_n <- 0;
  sort_insts v n;
  n

let take_te (trt : task_rt) : int =
  let n = trt.te_n in
  let v = trt.te_v in
  trt.te_v <- trt.te_v2;
  trt.te_v2 <- v;
  trt.te_n <- 0;
  sort_insts v n;
  n

let take_tj (trt : task_rt) : int =
  let n = trt.tj_n in
  let v = trt.tj_v in
  trt.tj_v <- trt.tj_v2;
  trt.tj_v2 <- v;
  trt.tj_n <- 0;
  sort_insts v n;
  n

(* Phase-3 body: everything fires inline, in the dense sweep's
   order. *)
let rec fire_nodes_any (sim : t) (trt : task_rt) (inst : instance)
    (j : int) (nn : int) (any : bool) : bool =
  if j >= nn then any
  else
    let f = fire_node sim trt inst inst.if_v2.(j) in
    fire_nodes_any sim trt inst (j + 1) nn (any || f)

(* Dynamic-task flavor: at most [tiles] contexts issue datapath work
   per cycle, with the remaining slot count threaded through the
   recursion (a [ref] here would allocate every cycle). *)
let rec fire_dyn (sim : t) (trt : task_rt) (k : int) (ni : int)
    (slots : int) : unit =
  if k < ni then begin
    let inst = trt.tf_v2.(k) in
    inst.i_qfire <- false;
    if not inst.live then begin
      ignore (take_fire_nodes inst);
      fire_dyn sim trt (k + 1) ni slots
    end
    else if slots = 0 then begin
      (* No tile this cycle: stay woken for the next one. *)
      inst.i_qfire <- true;
      trt.tf_v <- vpush trt.tf_v trt.tf_n inst;
      trt.tf_n <- trt.tf_n + 1;
      fire_dyn sim trt (k + 1) ni 0
    end
    else begin
      let nn = take_fire_nodes inst in
      sim.woken <- sim.woken + nn;
      let any = fire_nodes_any sim trt inst 0 nn false in
      fire_dyn sim trt (k + 1) ni (if any then slots - 1 else slots)
    end
  end

let fire_task (sim : t) (trt : task_rt) : unit =
  let ni = take_tf trt in
  if trt.tdynamic then fire_dyn sim trt 0 ni trt.tk.tiles
  else
    for k = 0 to ni - 1 do
      let inst = trt.tf_v2.(k) in
      inst.i_qfire <- false;
      if inst.live then begin
        let nn = take_fire_nodes inst in
        sim.woken <- sim.woken + nn;
        for j = 0 to nn - 1 do
          ignore (fire_node sim trt inst inst.if_v2.(j))
        done
      end
      else ignore (take_fire_nodes inst)
    done

let emit_task (sim : t) (trt : task_rt) : unit =
  let ni = take_te trt in
  for k = 0 to ni - 1 do
    let inst = trt.te_v2.(k) in
    inst.i_qemit <- false;
    let nn = take_emit_nodes inst in
    if inst.live then
      for j = 0 to nn - 1 do
        let n = inst.ie_v2.(j) in
        if try_emit sim inst n then begin
          sim.last_activity <- sim.now;
          (* Freed pipeline/memory slots may unblock the node's next
             firing; drained state feeds the completion check below. *)
          wake_fire sim inst n;
          wake_complete sim inst
        end
      done
  done

(* Phase 5: a child completing here can enable its parent's completion
   in the same cycle when the parent sits later in the sweep order —
   chase those wakes exactly as far as the dense sweep would have. *)
(* Partition tc_v[0, n) by i_ord > cursor: ready entries land in
   tc2[0..], later entries compact in place at tc_v[i - ready] (always
   at or before their origin, so in-place is safe).  Returns the ready
   count; the later count is n - ready. *)
let rec dc_partition (trt : task_rt) (cursor : int) (i : int) (n : int)
    (ready : int) : int =
  if i >= n then ready
  else begin
    let inst = trt.tc_v.(i) in
    if inst.i_ord > cursor then begin
      trt.tc2.(ready) <- inst;
      dc_partition trt cursor (i + 1) n (ready + 1)
    end
    else begin
      trt.tc_v.(i - ready) <- inst;
      dc_partition trt cursor (i + 1) n ready
    end
  end

(* Run completions over the sorted ready prefix; returns the last
   i_ord visited (the new cursor). *)
let rec dc_run (sim : t) (trt : task_rt) (i : int) (nready : int)
    (cursor : int) : int =
  if i >= nready then cursor
  else begin
    let inst = trt.tc2.(i) in
    inst.i_qcomplete <- false;
    if inst.live then try_complete sim trt inst;
    dc_run sim trt (i + 1) nready inst.i_ord
  end

let rec drain_complete (sim : t) (trt : task_rt) (cursor : int) : unit =
  let n = trt.tc_n in
  if n > 0 then begin
    if Array.length trt.tc2 < n then
      trt.tc2 <- Array.make (max 8 (n * 2)) dummy_inst;
    let nready = dc_partition trt cursor 0 n 0 in
    if nready > 0 then begin
      trt.tc_n <- n - nready;
      sort_insts trt.tc2 nready;
      let c = dc_run sim trt 0 nready cursor in
      drain_complete sim trt c
    end
  end

(* Round-robin dispatch across a static task's tiles: a pipelined
   instance would otherwise accept every invocation and starve its
   replicas.  Returns whether anything was popped off the queue. *)
let rec rr_dispatch (sim : t) (trt : task_rt) (k : int) (n : int)
    (popped : bool) : bool =
  if k >= n then popped
  else begin
    let inst = trt.tinst.((trt.trr + k) mod n) in
    if tq_len trt > 0 && can_accept inst then begin
      let s = trt.tq_head land (Array.length trt.tq_rkind - 1) in
      trt.tq_head <- trt.tq_head + 1;
      inject sim trt inst s;
      trt.trr <- (trt.trr + k + 1) mod n;
      rr_dispatch sim trt (k + 1) n true
    end
    else rr_dispatch sim trt (k + 1) n popped
  end

let step (sim : t) : unit =
  let now = sim.now in
  let ntasks = Array.length sim.tasks in
  (* 0. always-on occupancy integrals (exact time-average and
     high-water depths, O(tasks + structures) per cycle, no
     allocation); ring samples additionally when tracing *)
  for i = 0 to ntasks - 1 do
    Ctr.occ_tick sim.otasks.(i) (tq_len sim.tasks.(i))
  done;
  for i = 0 to Array.length sim.ostructs - 1 do
    Ctr.occ_tick sim.ostructs.(i) (Memsys.struct_depth sim.ms i)
  done;
  (match sim.tr with
  | Some tr when now mod tr.Tr.sample_every = 0 ->
    Array.iter
      (fun trt ->
        Tr.occ_sample tr ~c:now (Ctr.Ktask trt.tk.tid) (tq_len trt))
      sim.tasks;
    List.iter
      (fun (sid, depth) -> Tr.occ_sample tr ~c:now (Ctr.Kstruct sid) depth)
      (Memsys.occupancy sim.ms)
  | _ -> ());
  drain_timed sim;
  (* 1. memory structures (completions notify waiting nodes) *)
  Memsys.step sim.ms ~now;
  (* 2. junction arbitration, only where sub-requests are queued *)
  for ti = 0 to ntasks - 1 do
    let trt = sim.tasks.(ti) in
    if trt.tj_n > 0 then begin
      let ni = take_tj trt in
      let w = sim.junction_width.(trt.tk.tid) in
      for k = 0 to ni - 1 do
        let inst = trt.tj_v2.(k) in
        inst.i_qjunction <- false;
        if inst.live then begin
          for _ = 1 to w do
            if inst.ij_tail - inst.ij_head > 0 then begin
              let s = inst.ij_head land (Array.length inst.ij_space - 1) in
              let space = inst.ij_space.(s) in
              let sr = inst.ij_sr.(s) in
              inst.ij_head <- inst.ij_head + 1;
              let rt = sim.ms.Memsys.space_of space in
              Memsys.enqueue sim.ms rt sr;
              sim.last_activity <- now;
              wake_complete sim inst
            end
          done;
          if inst.ij_tail - inst.ij_head > 0 then wake_junction sim inst
        end
      done
    end
  done;
  (* 3. fire phase over woken nodes *)
  for ti = 0 to ntasks - 1 do
    let trt = sim.tasks.(ti) in
    if trt.tf_n > 0 then fire_task sim trt
  done;
  (* utilization sweep: a task was busy if anything of it fired *)
  for ti = 0 to ntasks - 1 do
    let trt = sim.tasks.(ti) in
    if trt.t_fired_now then begin
      trt.tbusy <- trt.tbusy + 1;
      trt.t_fired_now <- false
    end
  done;
  (* 4. emission phase over woken nodes *)
  for ti = 0 to ntasks - 1 do
    let trt = sim.tasks.(ti) in
    if trt.te_n > 0 then emit_task sim trt
  done;
  (* 5. completions, only on instances whose state moved *)
  for ti = 0 to ntasks - 1 do
    let trt = sim.tasks.(ti) in
    if trt.tc_n > 0 then drain_complete sim trt min_int
  done;
  (* 6. dispatch *)
  for ti = 0 to ntasks - 1 do
    let trt = sim.tasks.(ti) in
    if tq_len trt > 0 then
      if trt.tdynamic then
        (* every queued message becomes a fresh context *)
        while tq_len trt > 0 do
          let s = trt.tq_head land (Array.length trt.tq_rkind - 1) in
          trt.tq_head <- trt.tq_head + 1;
          let inst = acquire_instance sim trt in
          inst.i_ord <- trt.t_next_ord;
          (* newest contexts first, so recursion runs depth-first *)
          trt.t_next_ord <- trt.t_next_ord - 1;
          inject sim trt inst s
        done
      else begin
        let popped = rr_dispatch sim trt 0 trt.tinst_n false in
        (* Queue space freed: parked callers can try again. *)
        if popped && trt.tw_n > 0 then begin
          let nw = trt.tw_n in
          trt.tw_n <- 0;
          for i = 0 to nw - 1 do
            let wn = trt.tw_node.(i) in
            wn.nr_wait_child <- false;
            wake_fire sim trt.tw_inst.(i) wn
          done
        end
      end
  done;
  (* 7. commit staged channel writes (dirty channels only) *)
  for i = 0 to sim.ld_n - 1 do
    let f = sim.ld_v.(i) in
    f.f_dirty <- false;
    if f.ftail - f.fmid > 0 then begin
      f.fmid <- f.ftail;
      (* Fresh tokens: the consumer may be able to fire. *)
      match f.f_dst with
      | Some (di, dn) -> wake_fire sim di dn
      | None -> ()
    end
  done;
  sim.ld_n <- 0;
  sim.node_cycles <- sim.node_cycles + sim.live_nodes;
  sim.now <- now + 1

(** Pre-load cycles for DMA into scratchpads (8 words per cycle). *)
let dma_cycles (c : G.circuit) : int =
  let scratch_words =
    List.fold_left
      (fun acc (g : Muir_ir.Program.global) ->
        match List.assoc_opt g.gspace c.space_map with
        | Some sid -> (
          match (G.structure c sid).shape with
          | G.Scratchpad _ -> acc + g.gsize
          | G.Cache _ -> acc)
        | None -> acc)
      0 c.prog.globals
  in
  (scratch_words + 7) / 8

let diagnose (sim : t) : string =
  let buf = Buffer.create 256 in
  Array.iter
    (fun trt ->
      Buffer.add_string buf
        (Fmt.str "task %s: %d queued, %d invocations, %d instances@."
           trt.tk.tname (tq_len trt) trt.tinvocations trt.tinst_n);
      for k = 0 to trt.tinst_n - 1 do
        let inst = trt.tinst.(k) in
        if inst.live && inst.i_count > 0 then begin
          Buffer.add_string buf
            (Fmt.str "task %s#%d: %d inflight, lo=%d next=%d@." trt.tk.tname
               inst.iid inst.i_count inst.i_lo inst.next_wave);
          Array.iter
            (fun (n : node_rt) ->
              let in_state =
                Array.to_list
                  (Array.map
                     (function
                       | None -> "imm"
                       | Some (f : fifo) -> string_of_int (f.fmid - f.fhead))
                     n.nr_in)
              in
              let out_state =
                Array.to_list
                  (Array.map
                     (fun fs ->
                       String.concat "/"
                         (List.map
                            (fun (f : fifo) ->
                              Fmt.str "%d(%d)" (f.fmid - f.fhead) f.fcap)
                            (Array.to_list fs)))
                     n.nr_out)
              in
              Buffer.add_string buf
                (Fmt.str
                   "  n%d %s fired=%d pipe=%d mem=%d next=%d sync=%d in=[%s] out=[%s]@."
                   n.nr.nid
                   (Muir_core.Graph.kind_to_string n.nr.kind)
                   n.nr_fired
                   (n.np_tail - n.np_head)
                   (n.nm_tail - n.nm_head)
                   n.nr_next_resp
                   (n.ns_tail - n.ns_head)
                   (String.concat ";" in_state)
                   (String.concat ";" out_state)))
            inst.inodes
        end
      done)
    sim.tasks;
  Buffer.contents buf

(** Run the circuit's root task with [args] to completion.  Returns
    the root's return value, the final memory, statistics, and the
    always-on performance-counter bank (exact fires, per-cause stall
    cycles and occupancy integrals — maintained whether or not a
    tracer is attached).  [?tracer] additionally streams timeline
    events into a [Muir_trace.Trace.t]; tracing is strictly passive,
    so cycle counts, stats and counters are identical with it on or
    off. *)
let run ?tracer ?(args = []) ?(max_cycles = 20_000_000)
    ?(deadlock_window = 50_000) (c : G.circuit) : result =
  let t_start = Unix.gettimeofday () in
  (* The steady-state kernel is allocation-free, but instance-pool
     warm-up (deep spawn recursion) allocates in bursts.  A default
     256k-word minor heap promotes those bursts straight to the major
     heap and triggers full collections mid-run; run under a roomier
     nursery and restore the caller's sizing afterwards. *)
  let gc_ctrl = Gc.get () in
  if gc_ctrl.Gc.minor_heap_size < 2_097_152 then
    Gc.set { gc_ctrl with Gc.minor_heap_size = 2_097_152 };
  let sim = create ?tracer c in
  Fun.protect
    ~finally:(fun () ->
      if gc_ctrl.Gc.minor_heap_size < 2_097_152 then Gc.set gc_ctrl)
  @@ fun () ->
  let root = sim.tasks.(c.root) in
  let root_ctx =
    { live_children = 0; cx_owner = None; cx_w_inst = [||]; cx_w_node = [||];
      cx_nw = 0 }
  in
  let s =
    tq_push root ~ctx:root_ctx ~rkind:0 ~rinst:dummy_inst ~rnode:dummy_node
      ~rwave:0 ~rctx:root_ctx
  in
  let base = s * max root.t_arity 1 in
  for i = 0 to root.t_arity - 1 do
    root.tq_tags.(base + i) <- F.tpoison;
    root.tq_nums.(base + i) <- 0;
    root.tq_flts.(base + i) <- 0.0;
    root.tq_objs.(base + i) <- F.no_obj
  done;
  List.iteri
    (fun i v ->
      if i < root.t_arity then begin
        root.tq_tags.(base + i) <- F.tag_of v;
        root.tq_nums.(base + i) <- F.num_of v;
        root.tq_flts.(base + i) <- F.flt_of v;
        root.tq_objs.(base + i) <- F.obj_of v
      end)
    (T.VBool true :: args);
  (* GC evidence: sample the minor-heap allocation counter every 4096
     cycles; the steady-state rate is measured over the second half of
     the run, past the construction warm-up. *)
  let gc0 = Gc.quick_stat () in
  let samples = ref (Array.make 64 0.0) in
  let nsamples = ref 0 in
  let push_sample () =
    if !nsamples = Array.length !samples then begin
      let nv = Array.make (!nsamples * 2) 0.0 in
      Array.blit !samples 0 nv 0 !nsamples;
      samples := nv
    end;
    !samples.(!nsamples) <- Gc.minor_words ();
    incr nsamples
  in
  push_sample ();
  while (not sim.root_done) && sim.now < max_cycles do
    if sim.now - sim.last_activity > deadlock_window then
      raise
        (Deadlock
           (Fmt.str "no progress for %d cycles at cycle %d:@.%s"
              deadlock_window sim.now (diagnose sim)));
    step sim;
    if sim.now land 4095 = 0 then push_sample ()
  done;
  if not sim.root_done then raise (Cycle_limit max_cycles);
  (* Close the books: fold every still-live instance's accounting into
     the whole-run counter bank. *)
  sim.ctrs.Ctr.final_cycle <- sim.now;
  (match sim.tr with
  | Some tr -> tr.Tr.final_cycle <- sim.now
  | None -> ());
  Array.iter
    (fun trt ->
      for k = 0 to trt.tinst_n - 1 do
        let inst = trt.tinst.(k) in
        if inst.live then begin
          let ip = inst.i_prof in
          Array.iteri
            (fun i np ->
              let n = inst.inodes.(i) in
              Ctr.fold sim.ctrs ~task:inst.it.tid ~node:n.nr.G.nid
                ~fires:n.nr_fired ~born:ip.born ~upto:sim.now np)
            ip.Ctr.Prof.nprofs
        end
      done)
    sim.tasks;
  let gc1 = Gc.quick_stat () in
  let gc_rate =
    if !nsamples >= 4 then begin
      let lo = !nsamples / 2 in
      let dw = !samples.(!nsamples - 1) -. !samples.(lo) in
      let dc = float_of_int ((!nsamples - 1 - lo) * 4096) in
      if dc > 0.0 then dw /. dc else 0.0
    end
    else if sim.now > 0 then
      (Gc.minor_words () -. !samples.(0)) /. float_of_int sim.now
    else 0.0
  in
  let value = sim.root_val in
  let dma = dma_cycles c in
  let wall = Unix.gettimeofday () -. t_start in
  (* Derived rates must stay printable on degenerate runs: a zero-cycle
     program or a wall-clock too small to resolve would otherwise put
     nan/inf into profiles and machine-read reports. *)
  let finite f = if Float.is_finite f then f else 0.0 in
  let per_cycle total =
    if sim.now = 0 then 0.0
    else finite (float_of_int total /. float_of_int sim.now)
  in
  { value;
    memory = sim.ms.Memsys.mem;
    counters = sim.ctrs;
    stats =
      { cycles = sim.now; dma_cycles = dma; total_cycles = sim.now + dma;
        fires = sim.fires;
        invocations =
          Array.to_list
            (Array.map (fun trt -> (trt.tk.tname, trt.tinvocations)) sim.tasks);
        utilization =
          Array.to_list
            (Array.map
               (fun trt ->
                 ( trt.tk.tname,
                   if sim.now = 0 then 0.0
                   else float_of_int trt.tbusy /. float_of_int sim.now ))
               sim.tasks);
        mem = Memsys.stats sim.ms;
        mem_requests = sim.ms.Memsys.total_requests;
        wall_seconds = wall;
        cycles_per_sec =
          (if wall > 0.0 then finite (float_of_int sim.now /. wall) else 0.0);
        woken_per_cycle = per_cycle sim.woken;
        live_nodes_per_cycle = per_cycle sim.node_cycles;
        gc_minor_words_per_cycle = finite gc_rate;
        gc_major_collections =
          gc1.Gc.major_collections - gc0.Gc.major_collections } }
