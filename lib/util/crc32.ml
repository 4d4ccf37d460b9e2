(* Built at module initialisation, not lazily: two domains forcing a lazy
   table together raise CamlinternalLazy.Undefined in one of them. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytes (b : Bytes.t) =
  let c = ref 0xFFFFFFFF in
  for i = 0 to Bytes.length b - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s)
