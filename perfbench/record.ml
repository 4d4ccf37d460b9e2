(* The benchmark's result line: one JSON object, the last line of
   standard output. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Record.number: not finite"

let line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (Xsc_util.Json.escape name)
          (number value) (Xsc_util.Json.escape unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
