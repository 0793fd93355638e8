(** Closure-compiled statement kernels — the executor's one compiled
    engine ({!Exec}'s [`Compiled], its default).

    Each statement's LHS/RHS is translated once into an OCaml closure over
    the [int array] iteration vector: loop variables become vector slots,
    parameter values are folded in as constants, array references resolve
    to the raw backing store of a frozen {!Arrays.t}, and affine
    subscripts (recognized via {!Loopir.Affine}) are pre-lowered into a
    single fused linear offset [c + Σ mⱼ·iterⱼ] — so the per-instance hot
    loop performs no list traversal, no string lookup and no AST matching.

    Semantics match {!Interp.exec_instance} for every instance of the
    program's own iteration space: the dry scan ({!Interp.scan_bounds})
    has already evaluated every subscript with checked arithmetic and
    noted its extent, so fused offsets are always in bounds for scheduled
    instances.  Feeding iteration vectors from outside the scanned space
    is a programming error: fused accesses then raise [Invalid_argument]
    (the OCaml array bounds check) instead of falling back to
    {!Arrays.initial_value}.  Non-affine subscripts keep the exact
    interpreter semantics (they go through {!Arrays.get}/{!Arrays.set}).

    {!Interp} remains the reference oracle and the cross-check engine:
    [Exec.check] compares a compiled run against [Interp.run_sequential]
    bit-for-bit. *)

type t

val program : Interp.env -> Arrays.t -> t
(** [program env store] compiles every statement of [env] against the
    frozen [store] (from {!Interp.scan_bounds} on the same [env]).
    Raises [Failure] on variables bound neither by a loop nor by a
    parameter, like the interpreter would at execution time. *)

val exec_instance : t -> Sched.instance -> unit
(** Runs one statement instance through its compiled kernel.  Raises
    [Failure] on an iteration arity mismatch, like
    {!Interp.exec_instance}. *)
