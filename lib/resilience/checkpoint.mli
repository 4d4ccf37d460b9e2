(** Checkpoint/restart under Poisson failures.

    At exascale the system MTBF drops below the application runtime, so the
    checkpoint interval becomes a first-order design parameter. This module
    provides the Young/Daly analysis and a stochastic simulation that
    validates it (FIG-6): expected completion time is convex in the interval
    with its minimum at [sqrt(2 C M)]. *)

type params = {
  work : float;  (** failure-free compute time of the job, seconds *)
  checkpoint_cost : float;  (** C: time to write one checkpoint *)
  restart_cost : float;  (** R: time to reboot/reload after a failure *)
  mtbf : float;  (** M: system mean time between failures *)
}

val young_interval : params -> float
(** Young's first-order optimum [sqrt(2 C M)]. *)

val daly_interval : params -> float
(** Daly's higher-order optimum (reduces to Young when [C << M]). *)

val expected_time : params -> interval:float -> float
(** Daly's closed-form expected completion time with checkpoints every
    [interval] seconds of useful work. *)

(** {1 Real checkpoint files}

    Checkpoints are written atomically (to [path ^ ".tmp"], then renamed
    into place) with a self-validating header: magic, format version,
    payload length and a CRC-32 of the Marshal payload. A crash mid-write
    can therefore never leave a half-written file under the checkpoint
    name, and a file torn after the fact (truncation, bit rot) is rejected
    with a typed error instead of crashing [Marshal] on garbage. *)

type load_error =
  | No_such_file
  | Truncated
      (** file shorter than the header or than the declared payload, or a
          declared payload length that reads back negative *)
  | Bad_magic  (** not a checkpoint file *)
  | Bad_version of int  (** written by an incompatible format version *)
  | Bad_crc  (** payload does not match its checksum: corrupt checkpoint *)

val describe_error : load_error -> string

val save_value : string -> 'a -> int
(** Write any marshallable value (Bigarray-backed state included) as an
    atomic, checksummed checkpoint; returns the file size in bytes.
    Tallies [checkpoint.writes], [checkpoint.bytes_written] and the
    [checkpoint.write_seconds] histogram in the {!Xsc_obs.Metrics}
    registry — measuring saves on representative state gives a defensible
    [checkpoint_cost] for the interval analysis. *)

val load_value : string -> ('a, load_error) result
(** Read back a value written by {!save_value}, validating the header and
    CRC first. The type is the caller's claim, as with [Marshal]. *)

val save_value_with : magic:string -> string -> 'a -> int
(** {!save_value} under a caller-chosen 7-byte magic: the same atomic
    tmp+rename write and self-validating header, but files from different
    subsystems (e.g. the flight recorder) reject each other with
    [Bad_magic] instead of Marshal-crashing on a type confusion. Raises
    [Invalid_argument] unless the magic is exactly 7 bytes. *)

val load_value_with : magic:string -> string -> ('a, load_error) result
(** Read back a value written by {!save_value_with} under the same
    magic. *)

val save : string -> Xsc_linalg.Mat.t -> int
(** [save_value] specialised to a matrix. *)

val load : string -> (Xsc_linalg.Mat.t, load_error) result
(** [load_value] specialised to a matrix. *)

val simulate : Xsc_util.Rng.t -> params -> interval:float -> float
(** One stochastic run: exponential failures, work lost back to the last
    checkpoint, restart cost paid per failure. Returns total wall time.
    Tallies [checkpoint.sim_failures] and [checkpoint.sim_checkpoints]. *)

val simulate_mean : ?runs:int -> Xsc_util.Rng.t -> params -> interval:float -> float
(** Mean of [runs] (default 200) independent simulations. *)

val efficiency : params -> interval:float -> float
(** [work / expected_time] — the fraction of the machine doing science. *)
