(** Reference interpreter for the mini-Fortran programs over the dense
    array store, plus schedule execution — the semantic ground truth used to
    validate every partitioning scheme: a legal schedule must leave the
    arrays exactly as the sequential run does. *)

type memo
(** The array shape recorded by the first successful {!scan_bounds}. *)

type env = private {
  prog : Loopir.Ast.program;  (** normalized *)
  params : (string * int) list;
  stmts : Loopir.Prog.stmt_info array;  (** indexed by statement id *)
  shape : memo;
}

val prepare : Loopir.Ast.program -> params:(string * int) list -> env
(** Normalizes the program and binds parameters. *)

val scan_bounds : env -> Arrays.t
(** A fresh frozen store covering every array extent the program
    touches, with initial values populated.  Memoized per env: only the
    first successful call dry-runs every statement instance (checked
    arithmetic, O(instances)); it records the extents in the env, and
    every later call on the same env seeds a new store from them in
    O(cells).  A dry run that raises records nothing, so later calls
    raise the same way.  Safe to call from several domains. *)

val memoized : env -> bool
(** Whether {!scan_bounds} has recorded this env's extents, i.e. whether
    the next call skips the dry run. *)

val run_sequential : env -> Arrays.t
(** Executes the program in source order on a fresh store
    ({!scan_bounds}). *)

val exec_instance : env -> Arrays.t -> Sched.instance -> unit
(** Executes one statement instance (used by the executors). *)

val run_schedule : env -> Sched.t -> Arrays.t
(** Executes a schedule serially (phases in order, tasks in listed order) on
    a fresh store. *)

val check_schedule : env -> Sched.t -> (unit, string) result
(** [run_schedule] vs [run_sequential] array equality. *)
