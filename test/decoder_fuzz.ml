(* Exhaustive corruption sweep for the binary decoders: every single-bit
   flip and every prefix truncation of a valid file must decode to the
   identical value or to a typed error, never raise. *)

let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [load] decodes [path]; the file there must be valid on entry, and is
   restored before returning. Returns the number of mutations tried. *)
let sweep ~name ~(load : string -> ('a, _) result) ~(equal : 'a -> 'a -> bool) path =
  let original = read path in
  let expected =
    match load path with Ok v -> v | Error _ -> Alcotest.failf "%s: pristine file rejected" name
  in
  let mutations = ref 0 in
  let probe what contents =
    incr mutations;
    write path contents;
    match load path with
    | Ok v when equal v expected -> ()
    | Ok _ -> Alcotest.failf "%s: %s decoded to a different value" name what
    | Error _ -> ()
    | exception e -> Alcotest.failf "%s: %s raised %s" name what (Printexc.to_string e)
  in
  let n = String.length original in
  for bit = 0 to (8 * n) - 1 do
    let b = Bytes.of_string original in
    Bytes.set b (bit / 8) (Char.chr (Char.code original.[bit / 8] lxor (1 lsl (bit mod 8))));
    probe (Printf.sprintf "flip of bit %d" bit) (Bytes.to_string b)
  done;
  for k = 0 to n - 1 do
    probe (Printf.sprintf "truncation to %d bytes" k) (String.sub original 0 k)
  done;
  write path original;
  !mutations

(* The file with bit 6 of byte [pos] flipped: on the top byte of a
   little-endian 8-byte length, the bit that reads back as the sign of an
   OCaml int. *)
let flip_sign_bit path ~pos =
  let b = Bytes.of_string (read path) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write path (Bytes.to_string b)
