type params = {
  work : float;
  checkpoint_cost : float;
  restart_cost : float;
  mtbf : float;
}

module Metrics = Xsc_obs.Metrics

let m_writes = Metrics.counter "checkpoint.writes"
let m_bytes = Metrics.counter "checkpoint.bytes_written"
let m_write_seconds = Metrics.histogram "checkpoint.write_seconds"
let m_sim_failures = Metrics.counter "checkpoint.sim_failures"
let m_sim_checkpoints = Metrics.counter "checkpoint.sim_checkpoints"

(* ---- Real checkpoint files: atomic, self-validating ----

   Layout: 7-byte magic "XSCCKPT", 1 version byte, 8-byte LE payload
   length, 4-byte LE CRC-32 of the payload, then the Marshal payload. The
   file is written to [path ^ ".tmp"] and renamed into place, so a crash
   mid-write can never leave a half-written file under the checkpoint
   name; a file torn by the filesystem (truncation, bit rot) fails the
   length or CRC check and [load] reports a typed error instead of letting
   [Marshal] crash on garbage. *)

let magic = "XSCCKPT"
let version = Char.chr 1
let header_len = 7 + 1 + 8 + 4

type load_error =
  | No_such_file
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Bad_crc

let describe_error = function
  | No_such_file -> "no such file"
  | Truncated -> "truncated or torn file"
  | Bad_magic -> "bad magic (not a checkpoint file)"
  | Bad_version v -> Printf.sprintf "unsupported checkpoint version %d" v
  | Bad_crc -> "payload CRC mismatch (corrupt checkpoint)"

let crc32 = Xsc_util.Crc32.bytes

let put_le oc ~bytes v =
  for i = 0 to bytes - 1 do
    output_char oc (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_le b ~pos ~bytes =
  let v = ref 0 in
  for i = bytes - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (pos + i))
  done;
  !v

(* The header discipline is parameterised by the 7-byte magic so sibling
   subsystems (the flight recorder) can write the same atomic,
   self-validating file format under their own magic — a checkpoint read
   as a flight dump (or vice versa) fails [Bad_magic] instead of
   Marshal-crashing on a type confusion. *)
let check_magic m =
  if String.length m <> 7 then
    invalid_arg "Checkpoint: magic must be exactly 7 bytes"

let save_value_with ~magic:m path (v : 'a) =
  check_magic m;
  let t0 = Xsc_obs.Clock.now_s () in
  let payload = Marshal.to_bytes v [] in
  let crc = crc32 payload in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let bytes =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc m;
        output_char oc version;
        put_le oc ~bytes:8 (Bytes.length payload);
        put_le oc ~bytes:4 crc;
        output_bytes oc payload;
        pos_out oc)
  in
  Sys.rename tmp path;
  Metrics.incr m_writes;
  Metrics.add m_bytes bytes;
  Metrics.observe m_write_seconds (Xsc_obs.Clock.now_s () -. t0);
  bytes

let load_value_with ~magic:m path : ('a, load_error) result =
  check_magic m;
  if not (Sys.file_exists path) then Error No_such_file
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        if len < header_len then Error Truncated
        else begin
          let header = Bytes.create header_len in
          really_input ic header 0 header_len;
          if Bytes.sub_string header 0 7 <> m then Error Bad_magic
          else if Bytes.get header 7 <> version then
            Error (Bad_version (Char.code (Bytes.get header 7)))
          else begin
            let payload_len = get_le header ~pos:8 ~bytes:8 in
            let crc = get_le header ~pos:16 ~bytes:4 in
            (* a flipped top bit reads back as a negative length *)
            if payload_len < 0 || len - header_len < payload_len then Error Truncated
            else begin
              let payload = Bytes.create payload_len in
              really_input ic payload 0 payload_len;
              if crc32 payload <> crc then Error Bad_crc
              else
                (* CRC already vouches for the bytes; the guard covers a
                   crafted file with a valid CRC over a non-Marshal body *)
                match Marshal.from_bytes payload 0 with
                | v -> Ok v
                | exception _ -> Error Bad_crc
            end
          end
        end)
  end

let save_value path (v : 'a) = save_value_with ~magic path v
let load_value path : ('a, load_error) result = load_value_with ~magic path

(* A real checkpoint of a matrix. This is the measured counterpart of
   [checkpoint_cost] — running [save] on a representative state gives a
   defensible C for the Young/Daly analysis instead of a guess. *)
let save path (m : Xsc_linalg.Mat.t) = save_value path m

let load path : (Xsc_linalg.Mat.t, load_error) result = load_value path

let validate p =
  if p.work <= 0.0 || p.checkpoint_cost < 0.0 || p.restart_cost < 0.0 || p.mtbf <= 0.0
  then invalid_arg "Checkpoint: invalid parameters"

let young_interval p =
  validate p;
  sqrt (2.0 *. p.checkpoint_cost *. p.mtbf)

let daly_interval p =
  validate p;
  let c = p.checkpoint_cost and m = p.mtbf in
  if c >= 2.0 *. m then m
  else begin
    (* Daly 2006, eq. (20): tau = sqrt(2 c M) [1 + 1/3 sqrt(c/2M) + c/18M] - c *)
    let x = sqrt (c /. (2.0 *. m)) in
    (sqrt (2.0 *. c *. m) *. (1.0 +. (x /. 3.0) +. (c /. (18.0 *. m)))) -. c
  end

let expected_time p ~interval =
  validate p;
  if interval <= 0.0 then invalid_arg "Checkpoint.expected_time: interval must be positive";
  let m = p.mtbf and c = p.checkpoint_cost and r = p.restart_cost in
  let segments = p.work /. interval in
  (* expected time per attempted segment of useful length tau with a
     checkpoint: M e^{R/M} (e^{(tau+C)/M} - 1) per Daly's model *)
  m *. exp (r /. m) *. (exp ((interval +. c) /. m) -. 1.0) *. segments

let simulate rng p ~interval =
  validate p;
  if interval <= 0.0 then invalid_arg "Checkpoint.simulate: interval must be positive";
  let clock = ref 0.0 in
  let done_work = ref 0.0 in
  (* exponential inter-arrival; memorylessness lets us draw the time to the
     next failure fresh at the start of each segment attempt *)
  let time_to_failure () = Xsc_util.Rng.exponential rng (1.0 /. p.mtbf) in
  let next_failure = ref (time_to_failure ()) in
  while !done_work < p.work do
    let segment = min interval (p.work -. !done_work) in
    let need = segment +. (if !done_work +. segment >= p.work then 0.0 else p.checkpoint_cost) in
    if !next_failure >= need then begin
      (* segment (and checkpoint) completed before the next failure *)
      clock := !clock +. need;
      next_failure := !next_failure -. need;
      done_work := !done_work +. segment;
      if need > segment then Metrics.incr m_sim_checkpoints
    end
    else begin
      (* failure mid-segment: lose the partial segment, pay restart *)
      Metrics.incr m_sim_failures;
      clock := !clock +. !next_failure +. p.restart_cost;
      next_failure := time_to_failure ()
      (* done_work unchanged: we restart from the last checkpoint *)
    end
  done;
  !clock

let simulate_mean ?(runs = 200) rng p ~interval =
  if runs <= 0 then invalid_arg "Checkpoint.simulate_mean: runs must be positive";
  let acc = ref 0.0 in
  for _ = 1 to runs do
    acc := !acc +. simulate rng p ~interval
  done;
  !acc /. float_of_int runs

let efficiency p ~interval = p.work /. expected_time p ~interval
