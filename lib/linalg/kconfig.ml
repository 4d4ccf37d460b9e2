type entry = {
  prec : Pblas.prec;
  kernel : Pblas.kernel;
  cfg : Pblas.kcfg;
  default_gflops : float;
  tuned_gflops : float;
}

type t = {
  host_key : string;
  nb : int;
  search_seconds : float;
  entries : entry list;
}

type load_error =
  | No_such_file
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Bad_crc
  | Host_mismatch of { expected : string; found : string }

let describe_error = function
  | No_such_file -> "no such file"
  | Truncated -> "truncated or torn file"
  | Bad_magic -> "bad magic (not a tuning cache)"
  | Bad_version v -> Printf.sprintf "unsupported tuning-cache version %d" v
  | Bad_crc -> "payload CRC mismatch or malformed payload (corrupt cache)"
  | Host_mismatch { expected; found } ->
      Printf.sprintf "cache tuned for a different host (this host %S, cache %S)"
        expected found

(* ---- host identity ---- *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception _ -> "unknown-cpu"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> "unknown-cpu"
            | line -> (
                match String.index_opt line ':' with
                | Some i
                  when String.length line >= 10
                       && String.sub line 0 10 = "model name" ->
                    String.trim
                      (String.sub line (i + 1) (String.length line - i - 1))
                | _ -> scan ())
          in
          scan ())

let hostname () =
  try Unix.gethostname () with _ -> (
    match Sys.getenv_opt "HOSTNAME" with Some h -> h | None -> "unknown-host")

let host_key () =
  Printf.sprintf "%s|%s|%d" (hostname ()) (cpu_model ()) Sys.word_size

(* ---- file format ---- *)

let magic = "XSCKTUNE"
let version = Char.chr 1
let header_len = 8 + 1 + 8 + 4

let default_path () =
  match Sys.getenv_opt "XSC_TUNE_CACHE" with
  | Some p when p <> "" -> p
  | _ ->
      let cache_root =
        match Sys.getenv_opt "XDG_CACHE_HOME" with
        | Some d when d <> "" -> d
        | _ -> (
            match Sys.getenv_opt "HOME" with
            | Some h when h <> "" -> Filename.concat h ".cache"
            | _ -> Filename.current_dir_name)
      in
      Filename.concat (Filename.concat cache_root "xsc") "ktune.bin"

let add_le buf ~bytes v =
  for i = 0 to bytes - 1 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let add_f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

exception Malformed

let get_le b ~pos ~bytes =
  if pos + bytes > Bytes.length b then raise Malformed;
  let v = ref 0 in
  for i = bytes - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (pos + i))
  done;
  !v

let get_f64 b ~pos =
  if pos + 8 > Bytes.length b then raise Malformed;
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits :=
      Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code (Bytes.get b (pos + i))))
  done;
  Int64.float_of_bits !bits

let encode_payload t =
  let buf = Buffer.create 256 in
  add_le buf ~bytes:4 (String.length t.host_key);
  Buffer.add_string buf t.host_key;
  add_le buf ~bytes:4 t.nb;
  add_f64 buf t.search_seconds;
  add_le buf ~bytes:4 (List.length t.entries);
  List.iter
    (fun e ->
      let b01 v = if v then 1 else 0 in
      add_le buf ~bytes:1 (match e.prec with Pblas.F64 -> 0 | Pblas.F32 -> 1);
      add_le buf ~bytes:1
        (match e.kernel with
        | Pblas.Gemm_nn -> 0
        | Pblas.Gemm_nt -> 1
        | Pblas.Syrk_ln -> 2
        | Pblas.Trsm_rlt -> 3);
      add_le buf ~bytes:1 e.cfg.Pblas.shape;
      add_le buf ~bytes:1 (b01 e.cfg.Pblas.pack);
      add_le buf ~bytes:1 (b01 e.cfg.Pblas.prefetch);
      add_f64 buf e.default_gflops;
      add_f64 buf e.tuned_gflops)
    t.entries;
  Buffer.to_bytes buf

(* Raises [Malformed] on any CRC-valid-but-nonsense payload (a crafted
   file, or a format drift the version byte failed to catch); the caller
   maps that to [Bad_crc], mirroring the Checkpoint loader's guard. *)
let decode_payload b =
  let pos = ref 0 in
  let le bytes =
    let v = get_le b ~pos:!pos ~bytes in
    pos := !pos + bytes;
    v
  in
  let f64 () =
    let v = get_f64 b ~pos:!pos in
    pos := !pos + 8;
    v
  in
  let key_len = le 4 in
  if key_len < 0 || !pos + key_len > Bytes.length b then raise Malformed;
  let host_key = Bytes.sub_string b !pos key_len in
  pos := !pos + key_len;
  let nb = le 4 in
  if nb <= 0 then raise Malformed;
  let search_seconds = f64 () in
  let count = le 4 in
  if count < 0 || count > 64 then raise Malformed;
  let entries =
    List.init count (fun _ ->
        let prec =
          match le 1 with 0 -> Pblas.F64 | 1 -> Pblas.F32 | _ -> raise Malformed
        in
        let kernel =
          match le 1 with
          | 0 -> Pblas.Gemm_nn
          | 1 -> Pblas.Gemm_nt
          | 2 -> Pblas.Syrk_ln
          | 3 -> Pblas.Trsm_rlt
          | _ -> raise Malformed
        in
        let shape = le 1 in
        if shape >= Array.length Pblas.shapes then raise Malformed;
        let bool01 =
          function 0 -> false | 1 -> true | _ -> raise Malformed
        in
        let pack = bool01 (le 1) in
        let prefetch = bool01 (le 1) in
        let default_gflops = f64 () in
        let tuned_gflops = f64 () in
        {
          prec;
          kernel;
          cfg = { Pblas.shape; pack; prefetch };
          default_gflops;
          tuned_gflops;
        })
  in
  { host_key; nb; search_seconds; entries }

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ?path t =
  let path = match path with Some p -> p | None -> default_path () in
  mkdir_p (Filename.dirname path);
  let payload = encode_payload t in
  let crc = Xsc_util.Crc32.bytes payload in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_char oc version;
      let put_le ~bytes v =
        for i = 0 to bytes - 1 do
          output_char oc (Char.chr ((v lsr (8 * i)) land 0xFF))
        done
      in
      put_le ~bytes:8 (Bytes.length payload);
      put_le ~bytes:4 crc;
      output_bytes oc payload);
  Sys.rename tmp path

let load ?path () : (t, load_error) result =
  let path = match path with Some p -> p | None -> default_path () in
  if not (Sys.file_exists path) then Error No_such_file
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        if len < header_len then Error Truncated
        else begin
          let header = Bytes.create header_len in
          really_input ic header 0 header_len;
          if Bytes.sub_string header 0 8 <> magic then Error Bad_magic
          else if Bytes.get header 8 <> version then
            Error (Bad_version (Char.code (Bytes.get header 8)))
          else begin
            let payload_len = get_le header ~pos:9 ~bytes:8 in
            let crc = get_le header ~pos:17 ~bytes:4 in
            (* a flipped top bit reads back as a negative length *)
            if payload_len < 0 || len - header_len < payload_len then Error Truncated
            else begin
              let payload = Bytes.create payload_len in
              really_input ic payload 0 payload_len;
              if Xsc_util.Crc32.bytes payload <> crc then Error Bad_crc
              else
                match decode_payload payload with
                | exception Malformed -> Error Bad_crc
                | t ->
                    let here = host_key () in
                    if t.host_key <> here then
                      Error (Host_mismatch { expected = here; found = t.host_key })
                    else Ok t
            end
          end
        end)
  end

let apply t =
  Pblas.reset_cfgs ();
  List.iter (fun e -> Pblas.set_cfg e.prec e.kernel e.cfg) t.entries

let installed : t option ref = ref None
let current () = !installed

let autoload ?path () =
  match load ?path () with
  | Ok t ->
      apply t;
      installed := Some t;
      true
  | Error _ -> false
