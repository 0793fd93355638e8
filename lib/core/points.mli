(** Packed iteration-point buffers: a set of [n] integer vectors of a fixed
    dimension stored as one flat [int array] (point-major), instead of an
    [Ivec.t list].  Materialized partitions hold thousands of points per
    run, so the packed layout replaces one boxed array + list cell per
    point with a single allocation — the GC-pressure cut visible in the
    [alloc_words] fields of the pipeline benchmarks. *)

type t

val dim : t -> int
val length : t -> int

val get : t -> int -> Linalg.Ivec.t
(** [get t i] is a fresh copy of the [i]-th point (callers may mutate it). *)

val iter : (Linalg.Ivec.t -> unit) -> t -> unit
(** Iterates in storage order; each callback receives a fresh copy. *)

val to_list : t -> Linalg.Ivec.t list
(** Points in storage order, freshly allocated. *)

val of_list : dim:int -> Linalg.Ivec.t list -> t
(** Packs a point list; raises [Invalid_argument] on a dimension
    mismatch. *)

val empty : dim:int -> t

(** Append-only construction without intermediate lists (amortized O(1)
    per point). *)
module Builder : sig
  type points := t
  type t

  val create : dim:int -> t
  val add : t -> Linalg.Ivec.t -> unit
  val length : t -> int
  val finish : t -> points
end
