(** The benchmark regression gate: diff a current [BENCH_pipeline.json]
    document against a committed baseline and flag stage timings or
    metric counters that regressed past a threshold.

    Both documents use the schema written by [bench/main.ml]:
    [{"schema_version": 2, "entries": [...]}], where each entry carries a
    program name and per-thread-count runs with ["stages"] (stage name →
    seconds) and ["metrics"]["counters"] blocks.

    The gate is growth-only: a value is flagged only when it grows, and a
    baseline of 0 is never flagged.  A gated counter must therefore be a
    work count (omega calls, memo misses, instances), where growth is the
    regression.  A fact that fails by shrinking or by leaving 0 — a
    semantic check, a cache-hit count — cannot fail this gate and belongs
    in a test that asserts it exactly.

    Comparisons are keyed by (program, threads): pairs present in only
    one document are skipped, not flagged — a baseline from an older
    bench run stays usable when programs are added.  Noise damping:
    stage timings below 0.05 s in both documents and counters below 16
    in both are never flagged, whatever the ratio. *)

type regression = {
  program : string;
  threads : int;
  what : string;  (** e.g. ["stage:classify"] or ["counter:dtests.gcd"] *)
  baseline : float;
  current : float;
  ratio : float;  (** [current / baseline] *)
}

type outcome = {
  regressions : regression list;
  compared : int;  (** individual stage/counter comparisons performed *)
}

val entries : Json.t -> (Json.t list, string) result
(** The entry list of a schema-v2 document.  [Error] on any other shape
    or [schema_version]. *)

val check :
  threshold_pct:float ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  (outcome, string) result
(** Flags every stage timing and counter that grew more than
    [threshold_pct] percent over the baseline and exceeds its absolute
    floor (0.05 s: millisecond-scale stage timings swing 2× run to run
    from domain-spawn variance, so only stages that reach tens of
    milliseconds in at least one document are judged; 16 for counters).
    Metric counters are deterministic, so they carry the precision the
    damped timings give up.  [Error] when either document is not a
    schema-v2 bench document. *)

val to_text : threshold_pct:float -> outcome -> string
(** Human-readable verdict: one line per regression (or a pass line),
    suitable for CI logs. *)
