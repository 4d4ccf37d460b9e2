(* Open-loop arrival schedules. Arrival times come from
   Loadgen.schedule (Poisson gaps, a pure function of the seed); every
   arrival carries an index into a pool of pre-generated payloads, so
   nothing is generated while the clock runs. *)

module Loadgen = Xsc_serve.Loadgen

type arrival = { due_s : float; slot : int }

let open_loop ~seed ~seconds ~rate_hz ~pool =
  let rec go count =
    let cfg = { Loadgen.default with seed = seed * 7919; rate_hz; count } in
    let s = Loadgen.schedule cfg in
    if s.(count - 1).Loadgen.at_s >= seconds then s else go (2 * count)
  in
  go (max 16 (Float.to_int (rate_hz *. seconds *. 1.25)))
  |> Array.to_list
  |> List.filter (fun a -> a.Loadgen.at_s < seconds)
  |> List.mapi (fun i a -> { due_s = a.Loadgen.at_s; slot = i mod pool })
  |> Array.of_list
