(** The benchmark's machine-readable result line. *)

type metric = { name : string; value : float; unit_ : string }

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

val line : correct:bool -> attempted:int -> failed:int -> metric list -> string
(** [{"correct": .., "attempted": .., "failed": .., "metrics": {name:
    {"value": .., "unit": ..}, ..}}] with every digit of each value.
    Raises [Invalid_argument] on a value that is not finite. *)
