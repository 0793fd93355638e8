(** Request-scoped context — the identity a span or event is attributed
    to.

    A context carries one unique trace id.  It lives in domain-local
    storage: {!with_ctx} installs it for the dynamic extent of a
    callback, and {!Span}/{!Event} read {!current} at record time, so
    everything emitted while a context is installed carries the request
    id without any parameter threading.

    Contexts do not cross domains by themselves.  The domain pool
    ([Runtime.Workers]) captures {!current} when a job is submitted and
    re-installs it with {!with_opt} around the job body on whichever
    domain runs it — that is the whole propagation protocol. *)

type t

val make : unit -> t
(** A fresh context with a unique trace id (unique within the process,
    and tagged with a boot-time salt so ids from different processes are
    unlikely to collide in merged logs). *)

val of_id : string -> t
(** Adopt an externally supplied trace id (e.g. from a client header). *)

val id : t -> string

val current : unit -> t option
(** The context installed on the calling domain, if any. *)

val current_id : unit -> string option

val with_ctx : t -> (unit -> 'a) -> 'a
(** Runs [f] with the context installed on this domain, restoring the
    previous one afterwards (also on exceptions). *)

val with_opt : t option -> (unit -> 'a) -> 'a
(** Like {!with_ctx} but also installs "no context" when given [None] —
    worker loops use it so a job never inherits the previous job's
    context by accident. *)
