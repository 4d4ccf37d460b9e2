(** Domain-local event tracing for the real executors.

    A tracer owns one preallocated {!Ring} per worker domain. The worker
    records scheduling events (task start/finish, barrier enter/exit)
    against the shared monotonic {!Clock}; because each ring has a single
    writer there is no synchronisation on the recording path, and the
    rings are merged into a [Trace.t] only after the workers are done with
    the run.

    Tracing is runtime-toggleable: executors consult {!enabled_by_env}
    ([XSC_TRACE=1]) when the caller does not pass [~trace] explicitly, and
    when tracing is off the executors skip recording entirely (one branch
    per event site), keeping the disabled overhead within the <2% budget. *)

type kind =
  | Task_start  (** [arg] = task id *)
  | Task_finish  (** [arg] = task id; closure time only, excludes successor release *)
  | Barrier_enter  (** fork-join level barrier; [arg] = level *)
  | Barrier_exit  (** [arg] = level *)

type event = { kind : kind; t_ns : int; arg : int }

type t

val create : domains:int -> capacity:int -> t
(** [capacity] is per-domain ring capacity. Raises [Invalid_argument] if
    either is non-positive. *)

val enabled_by_env : unit -> bool
(** True when [XSC_TRACE] is set to anything but [""], ["0"] or ["false"]. *)

val record : t -> domain:int -> kind -> arg:int -> unit
(** Timestamp the event now and append it to [domain]'s ring. Must only be
    called from the worker owning [domain]. *)

val origin_ns : t -> int
(** Monotonic timestamp taken at [create]; event times are reported
    relative to it. *)

val events : t -> domain:int -> event list
(** Recorded events of one domain in record order (timestamps absolute,
    nanoseconds). Only meaningful after the recording domains have been
    joined. *)

val domains : t -> int

val dropped : t -> int
(** Total events dropped across all rings; 0 means the trace is complete. *)
