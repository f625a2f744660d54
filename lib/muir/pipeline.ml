(** The toolchain pipeline as a reusable staged value.

    Every consumer of the toolchain — [muirc simulate]/[profile]/
    [check], the design-space explorer, the serve daemon — runs the
    same sequence of stages:

      compile → build → optimize → lower → model → simulate

    This module is that sequence extracted once, so the stages are no
    longer re-inlined at each call site.  The products are explicit
    ({!built} carries the program, circuit and pass reports;
    {!modeled} the lowered design and both synthesis models;
    {!simulate} returns the simulator's result record unchanged), and
    every call site composes exactly the stages it needs: a static
    check stops after {!build}, the explorer adds {!model} before
    deciding whether to simulate, the daemon runs all six.

    {2 Stage control: timing and deadlines}

    An optional {!ctl} value threads two cross-cutting concerns
    through a pipeline run without touching any stage's logic:

    - {e per-stage timing} — each executed stage adds its wall-clock
      seconds and an invocation count to the [ctl]'s arrays (indexed
      by {!stage_index}), which is what the serve daemon's per-stage
      latency counters aggregate;
    - {e deadlines} — a [ctl] built with [?deadline] (an absolute
      [Unix.gettimeofday] timestamp) makes every stage boundary check
      the clock and raise {!Deadline} naming the stage that was about
      to run.  Deadlines are enforced {e at boundaries only}: a stage
      already running is never interrupted, so an expired request
      costs at most one more stage before it fails cleanly.

    Without a [ctl] the pipeline adds no timing calls at all — the
    CLI paths that existed before this module behave (and print)
    byte-identically. *)

module G = Muir_core.Graph
module W = Muir_workloads.Workloads

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)

type stage = Compile | Build | Optimize | Lower | Model | Simulate

let stages = [ Compile; Build; Optimize; Lower; Model; Simulate ]
let nstages = 6

let stage_index = function
  | Compile -> 0
  | Build -> 1
  | Optimize -> 2
  | Lower -> 3
  | Model -> 4
  | Simulate -> 5

let stage_name = function
  | Compile -> "compile"
  | Build -> "build"
  | Optimize -> "optimize"
  | Lower -> "lower"
  | Model -> "model"
  | Simulate -> "simulate"

exception Deadline of stage
(** Raised at a stage boundary when the {!ctl}'s deadline has passed;
    carries the stage that was {e about} to run. *)

type ctl = {
  deadline : float option;     (** absolute time on the [now] clock *)
  now : unit -> float;         (** the clock; injectable for byte-stable tests *)
  stage_seconds : float array; (** wall seconds, indexed by {!stage_index} *)
  stage_counts : int array;    (** invocations, same indexing *)
}

let ctl ?deadline ?(now = Unix.gettimeofday) () : ctl =
  { deadline; now;
    stage_seconds = Array.make nstages 0.0;
    stage_counts = Array.make nstages 0 }

let seconds (c : ctl) (st : stage) : float =
  c.stage_seconds.(stage_index st)

(** Run one stage under an optional control: check the deadline at the
    boundary, execute, account the wall time. *)
let staged (c : ctl option) (st : stage) (f : unit -> 'a) : 'a =
  match c with
  | None -> f ()
  | Some c ->
    (match c.deadline with
    | Some d when c.now () > d -> raise (Deadline st)
    | _ -> ());
    let t0 = c.now () in
    let r = f () in
    let i = stage_index st in
    c.stage_seconds.(i) <- c.stage_seconds.(i) +. (c.now () -. t0);
    c.stage_counts.(i) <- c.stage_counts.(i) + 1;
    r

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)

(** What to push through the pipeline: an optional circuit name and a
    thunk producing a fresh program.  The thunk runs inside the
    Compile stage — and therefore inside whatever domain runs the
    pipeline, so nothing mutable (program memory included) is shared
    across parallel evaluations. *)
type source = {
  src_name : string option;  (** circuit name; [None] = builder default *)
  src_load : unit -> Muir_ir.Program.t;
}

let of_text ~(name : string) (src : string) : source =
  { src_name = Some name;
    src_load = (fun () -> Muir_frontend.Frontend.compile src) }

let of_file (path : string) : source =
  { src_name = None;
    src_load =
      (fun () ->
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Muir_frontend.Frontend.compile s) }

let of_workload (w : W.t) : source =
  { src_name = Some w.wname; src_load = (fun () -> W.program w) }

(** @raise Invalid_argument for unknown workload names *)
let of_workload_name (name : string) : source = of_workload (W.find name)

(* ------------------------------------------------------------------ *)
(* Stage products                                                      *)

type built = {
  p_program : Muir_ir.Program.t;
  p_circuit : G.circuit;
  p_reports : Muir_opt.Pass.report list;  (** one per applied pass *)
}

(** Compile, (optionally) unroll + build the circuit, and run the
    μopt passes.  Three stages: Compile / Build / Optimize. *)
let build ?ctl ?(unroll = false) ?(passes = []) (src : source) : built =
  let program = staged ctl Compile src.src_load in
  let circuit =
    staged ctl Build (fun () ->
        if unroll then ignore (Muir_ir.Unroll.unroll program);
        Muir_core.Build.circuit ?name:src.src_name program)
  in
  let reports =
    staged ctl Optimize (fun () -> Muir_opt.Pass.run_all passes circuit)
  in
  { p_program = program; p_circuit = circuit; p_reports = reports }

type modeled = {
  m_design : Muir_rtl.Rtl.design;
  m_fpga : Muir_model.Model.fpga_report;
  m_asic : Muir_model.Model.asic_report;
}

(** Lower to the component-level design and run both synthesis
    models.  Two stages: Lower / Model. *)
let model ?ctl (b : built) : modeled =
  let design = staged ctl Lower (fun () -> Muir_rtl.Lower.design b.p_circuit) in
  let fpga, asic =
    staged ctl Model (fun () ->
        (Muir_model.Model.fpga design, Muir_model.Model.asic design))
  in
  { m_design = design; m_fpga = fpga; m_asic = asic }

(** Cycle-accurate simulation of the built circuit (the Simulate
    stage); all simulator options pass through unchanged. *)
let simulate ?ctl ?tracer ?args ?max_cycles ?deadlock_window (b : built) :
    Muir_sim.Sim.result =
  staged ctl Simulate (fun () ->
      Muir_sim.Sim.run ?tracer ?args ?max_cycles ?deadlock_window b.p_circuit)
