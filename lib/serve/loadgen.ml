(* Seeded load generation: the arrival schedule and every problem instance
   are pure functions of the seed (Xsc_util.Rng), so a load run is exactly
   repeatable — the property the fault-storm acceptance test leans on
   (same seed => same request ids => same injected set).

   Open loop: requests arrive at Poisson times regardless of completions —
   the honest overload model (offered load does not politely slow down when
   the server falls behind), which is what makes reject rates meaningful.
   Closed loop: a fixed number of outstanding requests, the classical
   concurrency-limited client.

   The report's latency quantiles are exact sample percentiles over the
   completed requests (Stats.percentile), not the log2-bucket estimates the
   metrics registry exports — the registry answers "is the SLO burning"
   cheaply and forever; the report answers "what was the p999 of this run"
   precisely. *)

open Xsc_linalg
module Rng = Xsc_util.Rng
module Stats = Xsc_util.Stats
module Clock = Xsc_obs.Clock

type kind =
  | Spd
  | General
  | Product
  | Cg
  | Mg

type config = {
  seed : int;
  rate_hz : float;
  count : int;
  n : int;
  kinds : kind array;
  deadline_s : float;
}

let default =
  {
    seed = 42;
    rate_hz = 500.0;
    count = 100;
    n = 48;
    kinds = [| Spd |];
    deadline_s = 0.05;
  }

type arrival = { at_s : float; kind : kind; problem_seed : int }

let schedule cfg =
  if cfg.count <= 0 then invalid_arg "Loadgen.schedule: count must be positive";
  if cfg.rate_hz <= 0.0 then invalid_arg "Loadgen.schedule: rate_hz must be positive";
  if Array.length cfg.kinds = 0 then invalid_arg "Loadgen.schedule: kinds must be non-empty";
  let rng = Rng.create cfg.seed in
  let t = ref 0.0 in
  Array.init cfg.count (fun _ ->
      t := !t +. Rng.exponential rng cfg.rate_hz;
      let kind = cfg.kinds.(Rng.int rng (Array.length cfg.kinds)) in
      { at_s = !t; kind; problem_seed = 1 + Rng.int rng 0x3FFFFFFF })

(* Sparse instances: [n] is reinterpreted as the GRID EDGE (n^3 unknowns),
   not the matrix order — a grid-16 CG solve is a 4096-row SpMV stream, the
   bandwidth-bound analogue of an n=48 dense solve's compute-bound kernel.
   Tolerances/budgets are fixed here so a generated instance always
   converges on a fault-free server (the bench gates rely on sparse
   failures meaning injected faults or deliberate cap-outs, not flaky
   generation). *)
let sparse_tol = 1e-8
let cg_max_iter n = 30 * n
let mg_max_cycles = 100
let mg_levels = 4

let payload_of cfg a =
  let rng = Rng.create a.problem_seed in
  match a.kind with
  | Spd -> Request.Spd_solve (Mat.random_spd rng cfg.n, Vec.random rng cfg.n)
  | General -> Request.Lu_solve (Mat.random_diag_dominant rng cfg.n, Vec.random rng cfg.n)
  | Product -> Request.Gemm (Mat.random rng cfg.n cfg.n, Mat.random rng cfg.n cfg.n)
  | Cg ->
    let rows = cfg.n * cfg.n * cfg.n in
    Request.Cg_solve
      {
        a = Xsc_sparse.Stencil.poisson_3d cfg.n;
        b = Vec.random rng rows;
        tol = sparse_tol;
        max_iter = cg_max_iter cfg.n;
      }
  | Mg ->
    let rows = cfg.n * cfg.n * cfg.n in
    Request.Mg_solve
      {
        grid = cfg.n;
        levels = mg_levels;
        b = Vec.random rng rows;
        tol = sparse_tol;
        max_cycles = mg_max_cycles;
      }

(* The oracle: the identical Route plan the server submits, executed
   sequentially. The packed kernels are bitwise schedule-independent, so a
   fault-free served answer must equal this bit for bit — under any
   interleaving, steal pattern or storm. *)
let reference_routed ?nb cfg a = Route.direct ?nb (payload_of cfg a)

let bits_equal x y =
  Array.length x = Array.length y
  && (let ok = ref true in
      Array.iteri
        (fun i v -> if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then ok := false)
        x;
      !ok)

let solutions_bitwise_equal a b =
  match (a, b) with
  | Request.Vector x, Request.Vector y -> bits_equal x y
  | Request.Matrix x, Request.Matrix y ->
    Mat.dims x = Mat.dims y
    && (let rx, cx = Mat.dims x in
        let ok = ref true in
        for i = 0 to rx - 1 do
          for j = 0 to cx - 1 do
            if Int64.bits_of_float (Mat.get x i j) <> Int64.bits_of_float (Mat.get y i j)
            then ok := false
          done
        done;
        !ok)
  | _ -> false

type report = {
  offered : int;
  admitted : int;
  rejected : int;
  completed : int;
  failed : int;
  retried : int;
  wall_s : float;
  offered_rate : float;
  throughput : float;
  goodput : float;
  reject_rate : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_batch : float;
}

let percentile_ms samples p =
  if Array.length samples = 0 then 0.0 else Stats.percentile samples p *. 1e3

let report_of ~offered ~rejected ~wall_s ~batches (completions : Request.completion list) =
  let completed = List.length (List.filter (fun c -> Result.is_ok c.Request.outcome) completions) in
  let failed = List.length completions - completed in
  let retried = List.fold_left (fun acc c -> acc + c.Request.retries) 0 completions in
  let on_time =
    List.length
      (List.filter
         (fun c -> Result.is_ok c.Request.outcome && c.Request.met_deadline)
         completions)
  in
  let latencies =
    completions |> List.map (fun c -> c.Request.total_s) |> Array.of_list
  in
  Array.sort compare latencies;
  let admitted = List.length completions in
  {
    offered;
    admitted;
    rejected;
    completed;
    failed;
    retried;
    wall_s;
    offered_rate = (if wall_s > 0.0 then float_of_int offered /. wall_s else 0.0);
    throughput = (if wall_s > 0.0 then float_of_int completed /. wall_s else 0.0);
    goodput = (if wall_s > 0.0 then float_of_int on_time /. wall_s else 0.0);
    reject_rate = (if offered > 0 then float_of_int rejected /. float_of_int offered else 0.0);
    p50_ms = percentile_ms latencies 50.0;
    p99_ms = percentile_ms latencies 99.0;
    p999_ms = percentile_ms latencies 99.9;
    mean_batch =
      (if batches > 0 then float_of_int admitted /. float_of_int batches else 0.0);
  }

let rec wait_until target_s =
  let now = Clock.now_s () in
  if now < target_s then begin
    Unix.sleepf (Float.min 0.001 (target_s -. now));
    wait_until target_s
  end

let await_and_report srv cfg ~batches0 ~t0 tickets =
  let completions =
    Array.to_list tickets
    |> List.filter_map (function Ok tk -> Some (Server.await srv tk) | Error _ -> None)
  in
  let wall_s = Clock.now_s () -. t0 in
  let rejected =
    Array.fold_left (fun acc t -> if Result.is_error t then acc + 1 else acc) 0 tickets
  in
  let batches = (Server.counters srv).Server.batches - batches0 in
  report_of ~offered:cfg.count ~rejected ~wall_s ~batches completions

let run_open srv cfg =
  let arrivals = schedule cfg in
  let batches0 = (Server.counters srv).Server.batches in
  let t0 = Clock.now_s () in
  let tickets =
    Array.map
      (fun a ->
        wait_until (t0 +. a.at_s);
        Server.submit srv ~deadline_s:cfg.deadline_s (payload_of cfg a))
      arrivals
  in
  await_and_report srv cfg ~batches0 ~t0 tickets

let run_burst srv cfg =
  (* Payloads are generated up front: problem generation is O(n^3), pricier
     than the solve itself, so generating inline would pace the offered
     load below the service rate and overload could never be observed. *)
  let payloads = Array.map (payload_of cfg) (schedule cfg) in
  let batches0 = (Server.counters srv).Server.batches in
  let t0 = Clock.now_s () in
  let tickets =
    Array.map (fun p -> Server.submit srv ~deadline_s:cfg.deadline_s p) payloads
  in
  await_and_report srv cfg ~batches0 ~t0 tickets

let run_closed srv ~outstanding cfg =
  if outstanding <= 0 then invalid_arg "Loadgen.run_closed: outstanding must be positive";
  let arrivals = schedule cfg in
  let batches0 = (Server.counters srv).Server.batches in
  let t0 = Clock.now_s () in
  let completions = ref [] in
  let rejected = ref 0 in
  let window = Stdlib.Queue.create () in
  let submit a =
    match Server.submit srv ~deadline_s:cfg.deadline_s (payload_of cfg a) with
    | Ok tk -> Stdlib.Queue.add tk window
    | Error _ -> incr rejected
  in
  let drain_one () =
    if not (Stdlib.Queue.is_empty window) then
      completions := Server.await srv (Stdlib.Queue.pop window) :: !completions
  in
  Array.iter
    (fun a ->
      if Stdlib.Queue.length window >= outstanding then drain_one ();
      submit a)
    arrivals;
  while not (Stdlib.Queue.is_empty window) do
    drain_one ()
  done;
  let wall_s = Clock.now_s () -. t0 in
  let batches = (Server.counters srv).Server.batches - batches0 in
  report_of ~offered:cfg.count ~rejected:!rejected ~wall_s ~batches !completions

(* ---- the latency-isolation mix: Poisson smalls + a streaming large ---- *)

type large = {
  l_n : int;
  l_deadline_s : float;
  l_seed : int;
}

let default_large = { l_n = 768; l_deadline_s = 5.0; l_seed = 7 }

type isolation = {
  smalls : report;
  pairs : (arrival * Request.completion) list;
  larges_done : int;
  larges_failed : int;
  large_mean_s : float;
}

(* One client thread drives both loads: smalls open-loop at their Poisson
   times (offered load does not slow down for the large), the large
   closed-loop with exactly one outstanding — the moment one completes the
   next is submitted, so large work streams through the server for the
   whole run. The large instance is generated once and resubmitted
   (generation is O(n^3), pricier than the solve; regenerating would
   starve the stream). *)
let run_isolation srv ?large cfg =
  let arrivals = schedule cfg in
  let payloads = Array.map (payload_of cfg) arrivals in
  let large_payload =
    Option.map
      (fun l ->
        let rng = Rng.create l.l_seed in
        (l, Request.Spd_solve (Mat.random_spd rng l.l_n, Vec.random rng l.l_n)))
      large
  in
  let batches0 = (Server.counters srv).Server.batches in
  let large_tk = ref None in
  let larges = ref [] in
  let pump_large () =
    match large_payload with
    | None -> ()
    | Some (l, p) ->
      (match !large_tk with
      | Some tk -> (
        match Server.poll srv tk with
        | Some c ->
          larges := c :: !larges;
          large_tk := None
        | None -> ())
      | None -> ());
      if !large_tk = None then
        match Server.submit srv ~deadline_s:l.l_deadline_s p with
        | Ok tk -> large_tk := Some tk
        | Error _ -> ()
  in
  let t0 = Clock.now_s () in
  let tickets =
    Array.mapi
      (fun i a ->
        let rec wait () =
          pump_large ();
          let now = Clock.now_s () in
          if now < t0 +. a.at_s then begin
            Unix.sleepf (Float.min 0.0005 (t0 +. a.at_s -. now));
            wait ()
          end
        in
        wait ();
        Server.submit srv ~deadline_s:cfg.deadline_s payloads.(i))
      arrivals
  in
  let pairs =
    Array.to_list
      (Array.map2
         (fun a t ->
           match t with Ok tk -> Some (a, Server.await srv tk) | Error _ -> None)
         arrivals tickets)
    |> List.filter_map Fun.id
  in
  (match !large_tk with
  | Some tk ->
    larges := Server.await srv tk :: !larges;
    large_tk := None
  | None -> ());
  let wall_s = Clock.now_s () -. t0 in
  let rejected =
    Array.fold_left (fun acc t -> if Result.is_error t then acc + 1 else acc) 0 tickets
  in
  let batches = (Server.counters srv).Server.batches - batches0 in
  let larges_ok = List.filter (fun c -> Result.is_ok c.Request.outcome) !larges in
  {
    smalls = report_of ~offered:cfg.count ~rejected ~wall_s ~batches (List.map snd pairs);
    pairs;
    larges_done = List.length larges_ok;
    larges_failed = List.length !larges - List.length larges_ok;
    large_mean_s =
      (match larges_ok with
      | [] -> 0.0
      | l ->
        List.fold_left (fun acc c -> acc +. c.Request.total_s) 0.0 l
        /. float_of_int (List.length l));
  }

(* ---- the mixed-workload run: dense + sparse open-loop streams ---- *)

type mixed = {
  m_dense : report;
  m_sparse : report;
  m_dense_pairs : (arrival * Request.completion) list;
  m_sparse_pairs : (arrival * Request.completion) list;
}

(* One client thread drives both classes open-loop, arrivals merged in time
   order. Generation is asymmetric by design: dense instances are
   pre-generated before the clock starts (O(n^3) per instance, pricier than
   the solve itself — inline generation would pace offered load below the
   service rate), while sparse instances are generated inline at submit
   time (stencil assembly + rhs are O(rows), cheaper than a single solve
   chunk, so inline generation cannot distort the offered timing). Both
   reports share the run's batch count — [mean_batch] is run-wide, not
   per-class. *)
let run_mixed srv ~dense ~sparse =
  let da = schedule dense and sa = schedule sparse in
  let dense_payloads = Array.map (payload_of dense) da in
  let tagged =
    Array.append
      (Array.mapi (fun i a -> (a.at_s, `Dense, i, a)) da)
      (Array.mapi (fun i a -> (a.at_s, `Sparse, i, a)) sa)
  in
  Array.sort (fun (x, _, _, _) (y, _, _, _) -> compare x y) tagged;
  let placeholder = Error (Request.Rejected Request.Queue_full) in
  let dt = Array.make (Array.length da) placeholder in
  let st = Array.make (Array.length sa) placeholder in
  let batches0 = (Server.counters srv).Server.batches in
  let t0 = Clock.now_s () in
  Array.iter
    (fun (at, cls, i, a) ->
      wait_until (t0 +. at);
      match cls with
      | `Dense ->
        dt.(i) <- Server.submit srv ~deadline_s:dense.deadline_s dense_payloads.(i)
      | `Sparse ->
        st.(i) <- Server.submit srv ~deadline_s:sparse.deadline_s (payload_of sparse a))
    tagged;
  let pairs arrivals tickets =
    Array.to_list
      (Array.map2
         (fun a t ->
           match t with Ok tk -> Some (a, Server.await srv tk) | Error _ -> None)
         arrivals tickets)
    |> List.filter_map Fun.id
  in
  let dense_pairs = pairs da dt in
  let sparse_pairs = pairs sa st in
  let wall_s = Clock.now_s () -. t0 in
  let batches = (Server.counters srv).Server.batches - batches0 in
  let rejected ts =
    Array.fold_left (fun acc t -> if Result.is_error t then acc + 1 else acc) 0 ts
  in
  {
    m_dense =
      report_of ~offered:dense.count ~rejected:(rejected dt) ~wall_s ~batches
        (List.map snd dense_pairs);
    m_sparse =
      report_of ~offered:sparse.count ~rejected:(rejected st) ~wall_s ~batches
        (List.map snd sparse_pairs);
    m_dense_pairs = dense_pairs;
    m_sparse_pairs = sparse_pairs;
  }

let report_json r =
  Printf.sprintf
    "{\"offered\": %d, \"admitted\": %d, \"rejected\": %d, \"completed\": %d, \
     \"failed\": %d, \"retried\": %d, \"wall_s\": %.4f, \"offered_rate_hz\": %.1f, \
     \"throughput_hz\": %.1f, \"goodput_hz\": %.1f, \"reject_rate\": %.4f, \
     \"p50_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, \"mean_batch\": %.2f}"
    r.offered r.admitted r.rejected r.completed r.failed r.retried r.wall_s
    r.offered_rate r.throughput r.goodput r.reject_rate r.p50_ms r.p99_ms r.p999_ms
    r.mean_batch

let report_human r =
  Printf.sprintf
    "offered %d (%.0f/s)  admitted %d  rejected %d (%.1f%%)\n\
     completed %d  failed %d  retried %d\n\
     throughput %.0f/s  goodput %.0f/s  latency p50 %.2f ms  p99 %.2f ms  p999 %.2f ms\n\
     mean batch %.2f  wall %.3f s"
    r.offered r.offered_rate r.admitted r.rejected (100.0 *. r.reject_rate) r.completed
    r.failed r.retried r.throughput r.goodput r.p50_ms r.p99_ms r.p999_ms r.mean_batch
    r.wall_s
