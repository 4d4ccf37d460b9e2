(* Percentiles with the sample-count rule: a tail percentile is reported
   only when at least 10 samples lie beyond it, so a p99 needs 1000
   samples and a p90 needs 100. *)

(* Percentiles in tenths of a percent, highest first: integer arithmetic
   keeps the rule exact (100 samples leave exactly 10 beyond p90). *)
let ladder = [ 999; 990; 900; 500 ]

let tail_q samples =
  List.find_opt (fun q10 -> samples * (1000 - q10) / 1000 >= 10) ladder
  |> Option.map (fun q10 -> float_of_int q10 /. 10.0)

let percentile xs q =
  if Array.length xs = 0 then nan else Xsc_util.Stats.percentile xs q

type summary = { samples : int; tail_q : float; tail : float }

let summarize xs =
  let samples = Array.length xs in
  match tail_q samples with
  | Some q -> { samples; tail_q = q; tail = percentile xs q }
  | None -> { samples; tail_q = 0.0; tail = nan }
