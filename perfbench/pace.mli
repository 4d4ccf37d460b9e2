(** Seeded open-loop arrival schedules over pre-generated payload pools. *)

type arrival = {
  due_s : float;  (** when the request is due, from the phase start *)
  slot : int;  (** index into the payload pool, reused in turn *)
}

val open_loop : seed:int -> seconds:float -> rate_hz:float -> pool:int -> arrival array
(** Poisson arrivals at [rate_hz] in [\[0, seconds)], in time order.
    Equal arguments give equal schedules. *)
