(** Per-run diagnostics: what strategy ran, how long each stage took, how
    big the partition artifacts were, and how the execution behaved —
    renderable as text ([recpart run]) or JSON ([recpart run --json],
    [BENCH_pipeline.json]).

    Every field that only applies to some strategies is an option; [None]
    fields are omitted from the JSON rendering. *)

type partition_stats = {
  p1 : int option;  (** |P1| — independent/initial iterations *)
  p2 : int option;  (** |P2| — intermediate iterations (on chains) *)
  p3 : int option;  (** |P3| — final iterations *)
  n_chains : int option;  (** number of recurrence chains *)
  longest_chain : int option;
  growth : float option;  (** Theorem 1 growth factor a *)
  theorem_bound : int option;  (** Theorem 1 chain-length bound *)
  n_fronts : int option;  (** dataflow fronts (= partitioning steps) *)
  n_tasks : int option;  (** parallel sequential tasks (cosets, tiles, …) *)
}

val empty_stats : partition_stats

type check_result = Passed | Failed of string | Skipped

type phase_profile = {
  label : string;
  instances : int;
  units : int;  (** non-empty parallel work units in the phase *)
  seconds : float;
  busy_seconds : float;
      (** Σ per-domain execution time of the phase; the gap to
          [threads × seconds] is barrier idle — also the work-time input
          {!Runtime.Sim.calibrate} fits [w_iter] from *)
  alloc_words : float;
      (** minor-heap words allocated across all domains while executing
          the phase (sum of the executor's per-domain {!Runtime.Exec}
          deltas) *)
}

type phase_prediction = {
  p_label : string;
  predicted_s : float;  (** {!Runtime.Sim.phase_time} before execution *)
  actual_s : float option;  (** measured phase wall; [None] if not run *)
  p_rel_error : float option;  (** |predicted − actual| / actual *)
}

(** The predicted-vs-actual accounting block: what {!Runtime.Sim} said the
    schedule would cost before execution, against what {!Runtime.Exec}
    then measured. *)
type prediction = {
  cost_source : string;
      (** ["default"] (uncalibrated {!Runtime.Sim.base_seconds}) or
          ["calibrated"] (constants fitted from measured runs) *)
  per_phase : phase_prediction list;
  total_predicted_s : float;
  total_actual_s : float option;
  rel_error : float option;
}

val rel_error : predicted:float -> actual:float -> float option
(** |predicted − actual| / actual; [None] when [actual ≤ 0] or the ratio
    is not finite. *)

type balance = {
  busy : float array;
      (** busy seconds per domain slot, summed across phases (overflow
          buckets fold into the last slot, like {!Runtime.Exec.thread_loads}) *)
  busy_max : float;
  busy_min : float;
  busy_mean : float;
  idle_fraction : float;
      (** 1 − Σbusy / (threads × Σ phase wall): time domains spent waiting
          at barriers or idle for lack of work *)
  per_phase_idle : (string * float) list;
      (** per phase: idle fraction at that barrier (0 = perfectly
          balanced) *)
}

val balance_of_phases :
  threads:int -> (string * float array * float) list -> balance option
(** [balance_of_phases ~threads [(label, busy, wall); …]] aggregates the
    executor's per-phase busy arrays into the load-imbalance breakdown;
    [None] on an empty list.  Idle fractions are clamped to [[0, 1]]:
    degenerate inputs — zero or non-finite wall times, empty busy
    arrays — yield 0.0, never [nan]/[inf]. *)

type t = {
  program : string;
  params : (string * int) list;
  strategy : string;
  reason : string option;
  timings : (string * float) list;
      (** stage name → wall seconds, in pipeline order *)
  n_instances : int option;
  n_phases : int option;
  stats : partition_stats option;
  threads : int;
  legality : check_result;  (** every dependence edge respected? *)
  semantics : check_result;  (** arrays identical to the sequential run? *)
  exec_engine : string option;
      (** execution engine of the parallel run
          ("compiled"/"interp"); [None] when nothing was executed *)
  seq_seconds : float option;  (** sequential interpreter wall time *)
  par_seconds : float option;  (** instrumented schedule execution *)
  model_makespan : float option;  (** DOACROSS cost-model makespan *)
  thread_loads : int array option;
      (** instances executed per domain, across phases *)
  phases : phase_profile list;  (** per-phase execution profile *)
  balance : balance option;  (** domain busy/idle breakdown *)
  prediction : prediction option;
      (** cost-model accounting; [None] when no schedule was predicted *)
  gc : (string * Obs.Gcstats.t) list;
      (** per-stage GC telemetry ({!Obs.Gcstats.diff} around each pipeline
          stage), in pipeline order; rendered as a ["gc"] object in JSON *)
  metrics : Obs.Metrics.t option;
      (** counters/histograms the run moved (a {!Obs.Metrics.diff} of
          before/after snapshots) *)
}

val to_text : t -> string
val to_json : t -> Json.t

val metrics_json : Obs.Metrics.t -> Json.t
(** The ["metrics"] object embedded in {!to_json}; also used by [recpart
    explain --json] for its analysis-metrics section. *)

val check_result_string : check_result -> string
