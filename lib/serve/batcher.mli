(** Dynamic request batching (continuous-batching style).

    Requests of one compatibility class ({!Request.class_key}: same kernel,
    same size) coalesce into a batch so one dispatch amortises per-call
    overhead — the {!Xsc_core.Batched} argument applied to live traffic.
    A class flushes when it reaches [max_batch] (size trigger) or when its
    oldest member has lingered [linger_ns] / its most urgent member's
    deadline is within [linger_ns] (time trigger), so a lone request is
    delayed by at most the linger, never indefinitely.

    The batcher is polymorphic in the request type: {!create} builds the
    live server's [Request.t] batcher; {!create_keyed} lets other owners
    (the fleet simulator batches simulated requests in DES time) run the
    exact same coalescing logic over their own record type.

    Not thread-safe: the owning {!Server} calls it under its state lock. *)

type config = {
  max_batch : int;  (** size-triggered flush threshold *)
  linger_ns : int;  (** max time a request waits for batch company *)
}

type 'a batch = {
  seq : int;  (** formation order — the EDF tie-break, so equal-deadline
                  batches dispatch FIFO *)
  class_key : string;
  requests : 'a array;  (** arrival order within the class *)
  deadline_ns : int;  (** min member deadline: the EDF key *)
  opened_ns : int;
}

type 'a t

val create_keyed :
  classify:('a -> string) -> deadline_of:('a -> int) -> config -> 'a t
(** General form: [classify] is the batching-compatibility key, and
    [deadline_of] the absolute deadline (ns) feeding the batch's EDF key.
    Raises [Invalid_argument] if [max_batch <= 0] or [linger_ns < 0]. *)

val create : config -> Request.t t
(** {!create_keyed} specialised to live requests ({!Request.class_key} /
    [deadline_ns]). *)

val add : 'a t -> now_ns:int -> 'a -> 'a batch option
(** Stage a request; returns the flushed batch when this add fills the
    class to [max_batch]. *)

val flush_due : 'a t -> now_ns:int -> 'a batch list
(** Time-triggered flushes (linger expired or a member deadline within the
    linger), oldest class first (class-key tie-break, so flush order is
    deterministic — never hash-table iteration order). Call periodically. *)

val flush_all : 'a t -> 'a batch list
(** Drain everything (shutdown path), same deterministic order. *)

val pending : 'a t -> int
(** Requests staged and not yet flushed. *)
