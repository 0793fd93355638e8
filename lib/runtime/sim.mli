(** Deterministic SMP cost model — the substitute for the paper's 4-CPU
    Itanium/OpenMP testbed (DESIGN.md §2).  It charges:

    - a per-iteration work cost, scaled by a per-scheme code factor (the
      paper credits REC's superlinear 1–2 thread speedups to simplified
      subscript code in the WHILE chains, and its 4-thread droop to more
      expensive generated loop bounds);
    - a fork cost and a per-thread bound-evaluation cost per parallel
      region;
    - a barrier cost per phase;

    and computes each phase's makespan with LPT assignment of sequential
    tasks to threads. *)

type cost = {
  w_iter : float;  (** base per-iteration work (μs-ish, arbitrary unit) *)
  code_factor : float;  (** scheme's generated-code per-iteration factor *)
  fork : float;  (** parallel region launch *)
  barrier : float;  (** end-of-phase barrier *)
  bound_eval : float;  (** per region per thread: loop-bound computation *)
}

val base : cost
(** [code_factor = 1], calibrated defaults. *)

val with_factor : float -> cost
(** [base] with another code factor. *)

val scale : float -> cost -> cost
(** Multiplies every time-dimensioned constant ([w_iter], [fork],
    [barrier], [bound_eval]) by a factor; [code_factor] (a ratio) is
    untouched. *)

val base_seconds : cost
(** [scale 1e-6 base] — {!base} with its μs-ish units read as
    microseconds, so uncalibrated predictions are at least dimensionally
    comparable to measured wall seconds. *)

val phase_time : cost -> threads:int -> Sched.phase -> float
val time : cost -> threads:int -> Sched.t -> float

val doall_chunk_count : cost -> threads:int -> n:int -> int
(** Cost-proportional block count for an [n]-iteration DOALL phase on
    [threads] domains: as many blocks as the modelled work can amortize
    against the per-phase fork+barrier overhead (each block ≥ 4× the
    overhead), floored at [threads], capped at [8 × threads] and at [n].
    [threads ≤ 1] yields one block ([0] for an empty phase) — sequential
    execution never splits.  This is how the executor sizes its DOALL
    chunks. *)

val seq_time : cost -> int -> float
(** Sequential execution of [n] iterations of the {e original} code
    ([code_factor] deliberately not applied). *)

val speedup : cost -> threads:int -> n_seq:int -> Sched.t -> float
(** [seq_time n_seq / time sched] — the figure-3 quantity. *)

val lpt_makespan : int -> float array -> float
(** [lpt_makespan p durations] is the longest-processing-time-first
    makespan on [p] identical processors (exposed for tests). *)

(** {2 Abstract schedules}

    Phase structures described only by sizes, for paper-scale experiments
    where materializing instance arrays would be wasteful. *)

type aphase =
  | ADoall of int  (** n independent iterations *)
  | ATasks of int array  (** parallel sequential tasks, by length *)

type asched = aphase list

val abstract : Sched.t -> asched
val time_abstract : cost -> threads:int -> asched -> float
val speedup_abstract : cost -> threads:int -> n_seq:int -> asched -> float

(** {2 Predicted-vs-actual accounting}

    The cost model is only useful if it is held to account
    (ROADMAP item 2): {!predict} is called by the pipeline before
    execution, the realized error is fed back with
    {!observe_rel_error}, and {!calibrate} fits the constants from
    measured runs.  Instrumented under the [runtime.sim.*] naming
    convention: counters ["runtime.sim.predictions"] and
    ["runtime.sim.calibrations"], histogram
    ["runtime.sim.rel_error_pct"]. *)

val predict : cost -> threads:int -> Sched.t -> (string * float) list
(** Per-phase predicted time [(label, phase_time)], in [cost]'s units
    (seconds for a calibrated cost, see {!calibrate}); increments
    ["runtime.sim.predictions"]. *)

val observe_rel_error : float -> unit
(** Feeds a realized relative error (|predicted − actual| / actual) into
    ["runtime.sim.rel_error_pct"] as an integer percentage; non-finite
    and negative values are dropped. *)

type sample = {
  s_threads : int;  (** threads the measured run used *)
  s_shape : aphase;  (** the phase's size structure *)
  s_busy : float;  (** Σ per-domain busy seconds of the phase *)
  s_wall : float;  (** measured phase wall seconds, barrier included *)
}

val calibrate : sample list -> cost option
(** Fits cost constants (in seconds) from measured phases: [w_iter] =
    Σbusy / Σiterations, then fork/barrier split the mean wall-time
    residual over the fitted work makespan ([bound_eval] is folded in,
    [code_factor] stays 1).  [None] when the samples carry no work
    ([Σiterations = 0] or [Σbusy ≤ 0]).  Increments
    ["runtime.sim.calibrations"]. *)

val pipeline_time :
  cost -> threads:int -> stages:int -> stage_work:float -> delay:float -> float
(** DOACROSS-style software pipeline: [stages] sequential stages of
    [stage_work] each, consecutive stages separated by [delay], executed on
    [threads] processors round-robin. *)
