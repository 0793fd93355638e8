(** GC/runtime telemetry: cheap [Gc.quick_stat] snapshots and deltas.

    The pipeline driver snapshots around every stage so reports can show
    which stage allocated and collected how much.

    On OCaml 5.1 the word counters of [Gc.quick_stat] move only at a
    minor collection, so a delta over a region shorter than one minor
    heap reads 0 or a whole minor heap; collection counts are
    process-global.  Per-phase allocation in the executor therefore uses
    a [Gc.minor_words] delta instead, which is exact and local to the
    domain. *)

type t = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** minor words that survived into the major heap *)
  major_words : float;  (** words allocated in the major heap, promotions included *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

val quick : unit -> t
(** Snapshot via [Gc.quick_stat] (no heap traversal). *)

val diff : before:t -> after:t -> t
(** Field-wise [after - before]. *)

val allocated_words : t -> float
(** [minor + major - promoted]: total fresh words of a delta, counting
    promoted words once. *)

val is_zero : t -> bool

val zero : t
