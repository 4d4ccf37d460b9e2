(** Percentiles under the benchmark's sample-count rule. *)

val tail_q : int -> float option
(** The highest of p99.9, p99, p90 and p50 that leaves at least 10 of
    [samples] beyond it (1000 samples support p99, 999 only p90); [None]
    below 20 samples. *)

val percentile : float array -> float -> float
(** Linear-interpolated percentile ([q] in [0,100]); [nan] when empty. *)

type summary = {
  samples : int;
  tail_q : float;  (** the percentile [tail] reports; 0 below 20 samples *)
  tail : float;  (** [nan] below 20 samples *)
}

val summarize : float array -> summary
