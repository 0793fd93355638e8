(** Dense float array store for program execution.

    Extents are discovered by a dry scan of every subscript the program will
    evaluate, so negative and parametric indices (as in the Cholesky kernel)
    are handled by offsetting.  The frozen extents form a {!shape}, from
    which further stores are built without repeating the scan.

    Cells start with a deterministic per-cell value ({!initial_value}): an
    avalanche hash of the array name and indices, so neighbouring cells
    almost always differ and two executions agree iff they perform the
    same writes in an equivalent order.  Seeding walks each array's
    indices in row-major order and allocates nothing per cell. *)

type t

val create : unit -> t

val note_bounds : t -> string -> int list -> unit
(** Extend the recorded extent of an array to include the given index
    tuple (call during the dry scan). *)

val freeze : t -> unit
(** Allocate backing stores; must be called after all {!note_bounds} and
    before any {!get}/{!set}. *)

val get : t -> string -> int list -> float
val set : t -> string -> int list -> float -> unit

val initial_value : string -> int list -> float
(** The deterministic initial cell value: splitmix64's finalizer, seeded
    with [Hashtbl.hash name] and folded over each index in order, mapped to
    one of 1000 values in [\[0, 10.3)].  {!freeze} and {!of_shape} seed
    every cell with it, and {!get} returns it outside the extents. *)

type shape
(** The frozen extents of a store: each array's name and per-dimension
    lower and upper bounds.  Immutable. *)

val shape : t -> shape
(** The extents of a frozen store; raises [Invalid_argument] before
    {!freeze}. *)

val of_shape : shape -> t
(** A fresh frozen store with the given extents, every cell seeded with
    {!initial_value} — equal to the store the shape was taken from as it
    was when frozen, and sharing no data with it. *)

type view = {
  v_lo : int array;  (** per-dimension scanned lower bound *)
  v_hi : int array;  (** per-dimension scanned upper bound *)
  v_strides : int array;  (** row-major strides (innermost = 1) *)
  v_data : float array;  (** the live backing store (shared, not a copy) *)
}

val view : t -> string -> view option
(** Raw view of a frozen array for compiled execution: flat offset of index
    tuple [v] is [Σ_k (v_k - v_lo_k) · v_strides_k].  [v_data] aliases the
    store, so writes through the view are visible to {!get}.  [None] for
    unknown arrays; raises [Invalid_argument] before {!freeze}. *)

val equal : t -> t -> bool
(** Same arrays, same extents, same contents. *)

val max_abs_diff : t -> t -> float
val arrays : t -> string list
