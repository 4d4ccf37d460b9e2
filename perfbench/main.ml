(* The solver-service benchmark.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   drives the program only through its public functions, checks every
   answer, and prints one JSON result line last. README.md in this
   directory says why each workload exists and which end-to-end metric
   each per-layer metric should move.

   Workloads:
     serve-small    n=48 Spd/General/Product through Server.default_config,
                    in three rounds of: open loop at 200 req/s (nominal),
                    then 2000 req/s (high), then a closed loop with 64
                    outstanding
     serve-large    n=48 Spd/General at 100 req/s open loop beside n=768
                    SPD solves streamed closed loop, one outstanding
     offline-solve  no server: Solver.solve_spd and solve_general at
                    n=1024 on 2 workers and sequential Cg.solve on
                    poisson_3d 32 (one campaign), then 64 sequential n=48
                    Solver.solve_spd calls, repeated

   Inputs are generated from the seed before the clock starts, and each
   request is timed from when it was due, not from when it was submitted,
   so a stall also counts against every request queued behind it.

   End-to-end metrics (--trace 0), the same names on every workload:
     small_p50_ms  median latency of the n=48 class at the nominal rate
                   (offline: one sequential solve)
     heavy_p50_ms  median latency of the heavy class: n=48 in the closed
                   loop | n=768 | one offline campaign
     ok_share      share of operations neither failed, answered wrongly nor
                   past their deadline (a Queue_full refusal is submitted
                   again, and is not a failure)
     setup_s       median over several set-ups, before and after the timed
                   phase, of the time from server start (offline: the
                   solver call) to the first result
   --trace 1 runs the timed phase twice at half length, untraced then
   traced (the benchmark times each call into Server.submit), and reports
   the traced half's per-layer metrics, the overhead of tracing, and
   probes timed around single calls into each layer. *)

module Server = Xsc_serve.Server
module Loadgen = Xsc_serve.Loadgen
module Request = Xsc_serve.Request
module Route = Xsc_serve.Route
module Scratch = Xsc_serve.Scratch
module Clock = Xsc_obs.Clock
module Metrics = Xsc_obs.Metrics
module Solver = Xsc_core.Solver
module Mat = Xsc_linalg.Mat
module Blas = Xsc_linalg.Blas
module Span = Xsc_obs.Span
module Vec = Xsc_linalg.Vec
module Pblas = Xsc_linalg.Pblas
module Csr = Xsc_sparse.Csr
module Cg = Xsc_sparse.Cg
module Stencil = Xsc_sparse.Stencil
module Rng = Xsc_util.Rng
module Pool = Xsc_runtime.Pool
module Packed = Xsc_tile.Packed
open Perfbench

let ms_of_ns ns = float_of_int ns /. 1e6
let median xs = Pct.percentile xs 50.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- inputs ---- *)

(* A request class: a pool of distinct pre-generated payloads, reused in
   turn, and each payload's oracle answer (Loadgen.reference_routed, or
   Route.direct for inputs Loadgen does not generate), computed once
   before the timed phase. *)
type cls = {
  deadline_s : float;
  payloads : Request.payload array;
  oracle : int -> Request.solution;
  mutable refs : Request.solution option array;
}

let loadgen_cls ~seed ~n ~kinds ~pool ~deadline_s =
  let cfg = { Loadgen.seed; rate_hz = 1.0; count = pool; n; kinds; deadline_s } in
  let arrivals = Loadgen.schedule cfg in
  {
    deadline_s;
    payloads = Array.map (Loadgen.payload_of cfg) arrivals;
    oracle = (fun i -> Loadgen.reference_routed cfg arrivals.(i));
    refs = [||];
  }

let compute_refs cls =
  cls.refs <- Array.mapi (fun i _ -> try Some (cls.oracle i) with _ -> None) cls.payloads

(* Symmetric with a dominant positive diagonal, hence SPD, in O(n^2):
   Mat.random_spd is O(n^3) and takes seconds at n=1024. *)
let spd_matrix rng n =
  let m = Mat.symmetrize (Mat.random rng n n) in
  for i = 0 to n - 1 do
    Mat.set m i i (Mat.get m i i +. float_of_int n)
  done;
  m

let large_cls ~seed =
  let l = Loadgen.default_large in
  let rng = Rng.create (seed + l.Loadgen.l_seed) in
  let p = Request.Spd_solve (spd_matrix rng l.Loadgen.l_n, Vec.random rng l.Loadgen.l_n) in
  { deadline_s = l.Loadgen.l_deadline_s; payloads = [| p |];
    oracle = (fun _ -> Route.direct p); refs = [||] }

let small_pool = 1024

let small_cls ?(pool = small_pool) ~seed kinds =
  loadgen_cls ~seed ~n:48 ~kinds ~pool
    ~deadline_s:Server.default_config.Server.default_deadline_s

(* ---- served operations ---- *)

type res =
  | Pending of Server.ticket
  | Rejected
  | Raised
  | Lost  (** admitted, but unresolved long after it was due *)
  | Done of Request.completion

type op = {
  cls : cls;
  slot : int;
  due_ns : int;
  mutable late_ns : int;  (** submit start minus due time *)
  mutable call_ns : int;  (** time inside Server.submit (traced runs) *)
  mutable res : res;
}

let make cls slot due_ns = { cls; slot; due_ns; late_ns = min_int; call_ns = 0; res = Rejected }

let lost_after_s = 10.0
let lost_after_ns = Float.to_int (lost_after_s *. 1e9)
let poll_interval_s = 5e-5

(* Queue_full is the server's backpressure signal: the client waits
   [poll_interval_s] and submits again, keeping the request's due time, so
   a refusal costs latency (and counts in server.rejected), not the
   operation. A request still refused [lost_after_s] after it was due
   counts as failed. [call_ns] times the admitting call only. *)
let rec submit srv ~trace op =
  let t = Clock.now_ns () in
  if op.late_ns = min_int then op.late_ns <- t - op.due_ns;
  match Server.submit srv ~deadline_s:op.cls.deadline_s op.cls.payloads.(op.slot) with
  | Error (Request.Rejected Request.Queue_full) when t < op.due_ns + lost_after_ns ->
    Unix.sleepf poll_interval_s;
    submit srv ~trace op
  | r ->
    op.res <- (match r with Ok tk -> Pending tk | Error _ -> Rejected);
    if trace then op.call_ns <- Clock.now_ns () - t
  | exception e ->
    prerr_endline ("perfbench: Server.submit raised " ^ Printexc.to_string e);
    op.res <- Raised

(* Server.await would block forever on a request the server never
   resolves, so the benchmark polls instead, and gives a request up as lost
   [lost_after_s] after it was due. A server that lost a request is not
   stopped: Server.stop would wait for it forever. *)
let lost = ref 0

let poll srv op =
  match op.res with
  | Pending tk -> (
    match Server.poll srv tk with
    | Some c -> op.res <- Done c
    | None ->
      if Clock.now_ns () > op.due_ns + lost_after_ns then begin
        op.res <- Lost;
        incr lost;
        prerr_endline "perfbench: a request was never resolved; counted as failed"
      end)
  | _ -> ()

let rec await srv op =
  poll srv op;
  match op.res with
  | Pending _ ->
    Unix.sleepf poll_interval_s;
    await srv op
  | _ -> ()

let stop srv = if !lost = 0 then Server.stop srv

(* The completion instant: the request's admission stamp plus its total
   latency, on the same monotonic clock as the due times. *)
let finish_ns (c : Request.completion) =
  c.Request.request.Request.submit_ns + Float.to_int (c.Request.total_s *. 1e9)

let done_ok op =
  match op.res with Done ({ Request.outcome = Ok _; _ } as c) -> Some c | _ -> None

let collect f ops =
  Array.of_list
    (Array.fold_right (fun op acc -> match done_ok op with Some c -> f op c :: acc | None -> acc) ops [])

let latencies = collect (fun op c -> ms_of_ns (finish_ns c - op.due_ns))

(* Sleep to the due time; [idle] runs at least every [slice] seconds while
   waiting (the closed-loop large stream is pumped from there). *)
let wait_until ?(slice = infinity) ?(idle = ignore) target_ns =
  let rec go () =
    idle ();
    let now = Clock.now_ns () in
    if now < target_ns then begin
      Unix.sleepf (Float.min slice (float_of_int (target_ns - now) *. 1e-9));
      go ()
    end
  in
  go ()

let run_open srv ~trace ?slice ?idle cls ~seed ~rate_hz ~seconds =
  let arrivals = Pace.open_loop ~seed ~seconds ~rate_hz ~pool:(Array.length cls.payloads) in
  let t0 = Clock.now_ns () in
  Array.map
    (fun (a : Pace.arrival) ->
      let op = make cls a.Pace.slot (t0 + Float.to_int (a.Pace.due_s *. 1e9)) in
      wait_until ?slice ?idle op.due_ns;
      submit srv ~trace op;
      op)
    arrivals

(* Closed loop: [outstanding] callers, each issuing its next request the
   moment its previous one completed. One client thread awaits the oldest
   request first; a request's due time is the completion instant of the
   one it replaces, so the client's lag counts. Each answer is checked by
   [check] once its replacement is issued: holding every answer to the end
   (~90 000, a third of them 18 KB GEMM results) would grow the heap the
   phase runs on by hundreds of MB. Returns the operations and the
   completions per second inside the window. *)
let run_closed srv ~trace ~check ~outstanding ~seconds cls =
  let start = Clock.now_ns () in
  let until = start + Float.to_int (seconds *. 1e9) in
  let window = Queue.create () and ops = ref [] and next = ref 0 in
  let issue due =
    let op = make cls (!next mod Array.length cls.payloads) due in
    incr next;
    submit srv ~trace op;
    ops := op :: !ops;
    Queue.add op window
  in
  for _ = 1 to outstanding do
    issue start
  done;
  while Clock.now_ns () < until do
    let op = Queue.pop window in
    await srv op;
    issue (match op.res with Done c -> finish_ns c | _ -> Clock.now_ns ());
    check [| op |]
  done;
  Queue.iter (await srv) window;
  check (Array.of_seq (Queue.to_seq window));
  let ops = Array.of_list (List.rev !ops) in
  let in_window =
    Array.fold_left
      (fun n op -> match done_ok op with Some c when finish_ns c <= until -> n + 1 | _ -> n)
      0 ops
  in
  (ops, float_of_int in_window /. (float_of_int (until - start) *. 1e-9))

(* ---- output checks ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** rejected, raised, lost or typed failures *)
  mutable causes : (string * int) list;  (** [failed] by cause *)
  mutable wrong : int;  (** answered, but not the oracle's answer *)
  mutable late : int;  (** right answer after its deadline *)
}

let tally () = { attempted = 0; failed = 0; causes = []; wrong = 0; late = 0 }
let misses t = t.failed + t.wrong + t.late

let fail t cause =
  t.failed <- t.failed + 1;
  let n = Option.value ~default:0 (List.assoc_opt cause t.causes) in
  t.causes <- (cause, n + 1) :: List.remove_assoc cause t.causes

let stripped = Request.Vector [||]

(* Check settled operations, then drop each answer (a GEMM answer is
   18 KB) so that checked answers do not grow the heap that later
   requests run on. Open-loop phases are checked after they end. *)
let check t ops =
  Array.iter
    (fun op ->
      t.attempted <- t.attempted + 1;
      match op.res with
      | Pending _ -> fail t "unresolved"
      | Rejected -> fail t "rejected"
      | Raised -> fail t "raised"
      | Lost -> fail t "lost"
      | Done { Request.outcome = Error (Request.Rejected _); _ } -> fail t "rejected"
      | Done { Request.outcome = Error (Request.Failed { error; _ }); _ } -> fail t error
      | Done ({ Request.outcome = Ok sol; _ } as c) ->
        (match op.cls.refs.(op.slot) with
        | Some r when Loadgen.solutions_bitwise_equal sol r ->
          if float_of_int (finish_ns c - op.due_ns) > op.cls.deadline_s *. 1e9 then
            t.late <- t.late + 1
        | _ -> t.wrong <- t.wrong + 1);
        op.res <- Done { c with Request.outcome = Ok stripped })
    ops

(* ---- registry, GC and server counters around a timed phase ---- *)

type snap = {
  reg : (string * Metrics.value) list;
  gc : Gc.stat;
  hits : int;
  misses : int;
  counters : Server.counters option;
}

let snap srv =
  { reg = Metrics.snapshot (); gc = Gc.quick_stat (); hits = Scratch.hits ();
    misses = Scratch.misses (); counters = Option.map Server.counters srv }

let reg_value d name =
  match List.assoc_opt name d with
  | Some (Metrics.Counter n) -> float_of_int n
  | Some (Metrics.Gauge g) -> g
  | Some (Metrics.Histogram h) -> h.Metrics.sum
  | None -> 0.0

let reg_count d name =
  match List.assoc_opt name d with
  | Some (Metrics.Histogram h) -> float_of_int h.Metrics.count
  | _ -> 0.0

let blas_flops d =
  List.fold_left
    (fun acc (name, _) ->
      if String.starts_with ~prefix:"blas." name && String.ends_with ~suffix:".flops" name then
        acc +. reg_value d name
      else acc)
    0.0 d

let phase_layers ~before ~after ~requests =
  let d = Metrics.delta ~before:before.reg ~after:after.reg in
  let v = reg_value d and req = float_of_int requests in
  let counter f =
    match (before.counters, after.counters) with
    | Some b, Some a -> float_of_int (f a - f b)
    | _ -> 0.0
  in
  let hits = float_of_int (after.hits - before.hits)
  and misses = float_of_int (after.misses - before.misses) in
  [
    ("server.rejected", counter (fun c -> c.Server.rejected));
    ("serve.mean_batch", ratio (counter (fun c -> c.Server.admitted)) (counter (fun c -> c.Server.batches)));
    ("serve.cap_deferred", counter (fun c -> c.Server.cap_deferred));
    ("scratch.hit_ratio", ratio hits (hits +. misses));
    ( "serve.alloc_minor_words_per_req",
      ratio (v "serve.alloc_minor_words_per_req") (reg_count d "serve.alloc_minor_words_per_req") );
    ( "gc.minor_per_kreq",
      ratio (1000.0 *. float_of_int (after.gc.Gc.minor_collections - before.gc.Gc.minor_collections)) req );
    ( "heap_growth_mb",
      float_of_int ((after.gc.Gc.top_heap_words - before.gc.Gc.top_heap_words) * 8) /. 1048576.0 );
    ("blas.flops_per_req", ratio (blas_flops d) req);
  ]
  @
  (* Pool and Real_exec share the runtime.* counters; only one of them
     runs in a workload. *)
  match after.counters with
  | Some _ ->
    [
      ("pool.tasks_per_req", ratio (v "runtime.tasks_executed") req);
      ("pool.deadline_yields", v "pool.deadline_yields");
      ("runtime.steals", v "runtime.steals");
      ("runtime.park_ms", v "runtime.park_ns" /. 1e6);
    ]
  | None -> [ ("real_exec.steals", v "runtime.steals") ]

(* ---- one timed pass ---- *)

type pass = {
  small : float array;  (** latencies of the small class, ms, in due order *)
  heavy : float array;  (** latencies of the heavy class, ms *)
  named : (string * float) list;  (** workload-specific figures *)
  layers : (string * float) list;
}

(* How late the generator ran, and the offered rate over the scheduled
   one (first to last submission against first to last due time). *)
let late_layers ops =
  let late = Array.map (fun op -> ms_of_ns op.late_ns) ops in
  let n = Array.length ops in
  let offered_ratio =
    if n < 2 then 0.0
    else
      let first = ops.(0) and last = ops.(n - 1) in
      ratio
        (float_of_int (last.due_ns - first.due_ns))
        (float_of_int (last.due_ns + last.late_ns - first.due_ns - first.late_ns))
  in
  [
    ("loadgen.late_p50_ms", Pct.percentile late 50.0);
    ("loadgen.late_p99_ms", Pct.percentile late 99.0);
    ("loadgen.offered_ratio", offered_ratio);
  ]

let serve_layers ops =
  let us = Array.map (fun op -> float_of_int op.call_ns /. 1e3) ops in
  let qw = collect (fun _ c -> c.Request.queue_wait_s *. 1e3) ops
  and sv = collect (fun _ c -> c.Request.service_s *. 1e3) ops in
  late_layers ops
  @ [
      ("server.submit_us_p50", Pct.percentile us 50.0);
      ("server.submit_us_p99", Pct.percentile us 99.0);
      ("serve.queue_wait_ms_p50", Pct.percentile qw 50.0);
      ("serve.queue_wait_ms_p99", Pct.percentile qw 99.0);
      ("serve.service_ms_p50", Pct.percentile sv 50.0);
      ("serve.service_ms_p99", Pct.percentile sv 99.0);
    ]

let rounds = 3

let serve_small_pass srv t ~trace ~seed ~seconds small =
  let before = snap (Some srv) in
  (* each phase is checked before the next one starts *)
  let open_phase ~seed ~rate_hz ~seconds =
    let ops = run_open srv ~trace small ~seed ~rate_hz ~seconds in
    Array.iter (await srv) ops;
    check t ops;
    ops
  in
  (* The three phases run in [rounds] rounds, so that each samples the
     whole run: the host's slow spells last seconds, and a phase run in
     one block would catch all of a spell or none of it. *)
  let per = seconds /. float_of_int rounds in
  let results =
    List.init rounds (fun r ->
        (* seeds seed + 3r and seed + 3r + 1; seed + 2 is the warm-up's *)
        let seed = seed + (3 * r) in
        let nominal = open_phase ~seed ~rate_hz:200.0 ~seconds:(0.4 *. per) in
        let high = open_phase ~seed:(seed + 1) ~rate_hz:2000.0 ~seconds:(0.1 *. per) in
        let closed, sat_rps =
          run_closed srv ~trace ~check:(check t) ~outstanding:64 ~seconds:(0.3 *. per) small
        in
        (nominal, high, closed, sat_rps))
  in
  let nominal = Array.concat (List.map (fun (n, _, _, _) -> n) results)
  and high = Array.concat (List.map (fun (_, h, _, _) -> h) results)
  and closed = Array.concat (List.map (fun (_, _, c, _) -> c) results)
  and sat_rps = List.fold_left (fun acc (_, _, _, r) -> acc +. r) 0.0 results /. float_of_int rounds in
  let after = snap (Some srv) in
  let hi = latencies high in
  {
    small = latencies nominal;
    heavy = latencies closed;
    named =
      [
        ("small_sat_rps", sat_rps);
        ("small_hi_p50_ms", median hi);
        ("small_hi_p99_ms", Pct.percentile hi 99.0);
      ];
    layers =
      serve_layers nominal
      @ phase_layers ~before ~after ~requests:(Array.length nominal + Array.length high + Array.length closed);
  }

let serve_large_pass srv t ~trace ~seed ~seconds small large =
  let before = snap (Some srv) in
  let larges = ref [] and current = ref None and stopping = ref false in
  let issue due =
    let op = make large 0 due in
    submit srv ~trace op;
    larges := op :: !larges;
    current := match op.res with Pending _ -> Some op | _ -> None
  in
  let idle () =
    match !current with
    | None -> if not !stopping then issue (Clock.now_ns ())
    | Some op -> (
      poll srv op;
      match op.res with
      | Pending _ -> ()
      | res ->
        current := None;
        if not !stopping then issue (match res with Done c -> finish_ns c | _ -> Clock.now_ns ()))
  in
  let smalls =
    run_open srv ~trace ~slice:0.0005 ~idle small ~seed ~rate_hz:100.0 ~seconds:(0.85 *. seconds)
  in
  stopping := true;
  Array.iter (await srv) smalls;
  let larges = Array.of_list (List.rev !larges) in
  Array.iter (await srv) larges;
  let after = snap (Some srv) in
  List.iter (check t) [ smalls; larges ];
  {
    small = latencies smalls;
    heavy = latencies larges;
    named = [];
    layers =
      serve_layers smalls
      @ phase_layers ~before ~after ~requests:(Array.length smalls + Array.length larges);
  }

(* ---- offline ---- *)

let offline_n = 1024
let offline_grid = 32
let cg_tol = 1e-8
let residual_bound = 1e-12
let smalls_per_campaign = 64

type offline_inputs = {
  spd : Mat.t;
  dd : Mat.t;  (** strictly diagonally dominant *)
  b : Vec.t;
  lap : Csr.t;
  lap_b : Vec.t;
  small_a : Mat.t array;
  small_b : Vec.t array;
}

let offline_inputs ~seed =
  let rng = Rng.create seed in
  let n = offline_n in
  let spd = spd_matrix rng n in
  let dd = Mat.random_diag_dominant rng n in
  let b = Vec.random rng n in
  let lap = Stencil.poisson_3d offline_grid in
  let lap_b = Vec.random rng lap.Csr.rows in
  let small_a = Array.init smalls_per_campaign (fun _ -> spd_matrix rng 48) in
  let small_b = Array.init smalls_per_campaign (fun _ -> Vec.random rng 48) in
  { spd; dd; b; lap; lap_b; small_a; small_b }

(* An offline answer, checked after the timed phase. *)
type answer =
  | Dense of Mat.t * Vec.t * Vec.t  (** A, b, x: the residual must meet the bound *)
  | Iter of Cg.result  (** must have converged *)
  | Error of string

let attempt f = match f () with a -> a | exception e -> Error (Printexc.to_string e)

let check_answers t answers =
  List.iter
    (fun a ->
      t.attempted <- t.attempted + 1;
      match a with
      | Error e -> fail t e
      | Dense (m, b, x) -> if not (Solver.residual m x b <= residual_bound) then t.wrong <- t.wrong + 1
      | Iter r -> if not r.Cg.converged then t.wrong <- t.wrong + 1)
    answers

let solve_spd_2 a b () = Dense (a, b, Solver.solve_spd ~opts:(Solver.with_workers 2) a b)

let timed answers f =
  let t = Clock.now_ns () in
  let a = attempt f in
  answers := a :: !answers;
  ms_of_ns (Clock.now_ns () - t)

let offline_pass ~seconds inp answers =
  let before = snap None in
  let until = Clock.now_ns () + Float.to_int (seconds *. 1e9) in
  let spd = ref [] and lu = ref [] and cg = ref [] and campaign = ref [] and small = ref [] in
  let timed = timed answers in
  while Clock.now_ns () < until do
    let ts = timed (solve_spd_2 inp.spd inp.b) in
    let tl =
      timed (fun () -> Dense (inp.dd, inp.b, Solver.solve_general ~opts:(Solver.with_workers 2) inp.dd inp.b))
    in
    let tc = timed (fun () -> Iter (Cg.solve ~tol:cg_tol inp.lap inp.lap_b)) in
    spd := ts :: !spd;
    lu := tl :: !lu;
    cg := tc :: !cg;
    campaign := (ts +. tl +. tc) :: !campaign;
    Array.iteri
      (fun i a -> small := timed (fun () -> Dense (a, inp.small_b.(i), Solver.solve_spd a inp.small_b.(i))) :: !small)
      inp.small_a
  done;
  let after = snap None in
  let arr l = Array.of_list (List.rev !l) in
  let n = float_of_int offline_n in
  let gflops flops ms = flops /. (ms *. 1e-3) /. 1e9 in
  let dataflow_s = (List.fold_left ( +. ) 0.0 !spd +. List.fold_left ( +. ) 0.0 !lu) *. 1e-3 in
  let park_s = reg_value (Metrics.delta ~before:before.reg ~after:after.reg) "runtime.park_ns" /. 1e9 in
  {
    small = arr small;
    heavy = arr campaign;
    named =
      [
        ("offline_spd_gflops", gflops (n *. n *. n /. 3.0) (median (arr spd)));
        ("offline_lu_gflops", gflops (2.0 *. n *. n *. n /. 3.0) (median (arr lu)));
        ("offline_cg_ms", median (arr cg));
      ];
    layers =
      (* busy share of the two dataflow workers over the dense solves *)
      ("real_exec.busy_share", 1.0 -. ratio park_s (dataflow_s *. 2.0))
      :: phase_layers ~before ~after ~requests:(List.length !campaign * 3 + List.length !small);
  }

(* ---- a known defect ---- *)

(* Blas creates its gemm, syrk, trsm and gemv tallies lazily, and Span
   its dropped-records counter; a domain that forces one of these while
   another domain is forcing it raises CamlinternalLazy.Undefined. The
   first tiled call of a fresh process on two workers fails so in about a
   third of processes, at n=48 through the server as well as at n=1024
   offline, and so does a task when two workers drop their first spans at
   once (serve-large fills the server's collector). Every set-up trial
   therefore starts, inside its timing, by forcing each of them once from
   one domain, so that the race does not fail a random operation of the
   run. The traced run of offline-solve counts the Blas race instead, in
   fresh processes ([first_call_raised]). *)
let prime_lazy_counters () =
  let one () = Mat.identity 1 in
  Blas.gemm ~alpha:1.0 (one ()) (one ()) ~beta:0.0 (one ());
  Blas.syrk ~alpha:1.0 (one ()) ~beta:0.0 (one ());
  Blas.trsm ~alpha:1.0 (one ()) (one ());
  Blas.gemv ~alpha:1.0 (one ()) [| 1.0 |] ~beta:0.0 [| 0.0 |];
  let col = Span.collector ~capacity:1 () in
  let r =
    { Span.request = 0; span = 0; parent = -1; phase = ""; name = ""; lane = 0; attempt = 0; start_ns = 0;
      finish_ns = 0 }
  in
  Span.record col r;
  Span.record col r

(* The child's side: the first call of the process is a 2-worker
   Solver.solve_spd at n=1024. Exits 3 when it raises. *)
let first_call_child seed =
  let rng = Rng.create seed in
  let a = spd_matrix rng offline_n in
  match Solver.solve_spd ~opts:(Solver.with_workers 2) a (Vec.random rng offline_n) with
  | _ -> exit 0
  | exception _ -> exit 3

let first_call_children = 8

(* How many of [first_call_children] fresh processes saw their first
   2-worker solve raise. Each child is waited for before the next starts. *)
let first_call_raised () =
  let exe = Sys.executable_name in
  let raised = ref 0 in
  for i = 1 to first_call_children do
    let pid =
      Unix.create_process exe [| exe; "--first-call-child"; string_of_int i |] Unix.stdin Unix.stderr Unix.stderr
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 3 -> incr raised
    | Unix.WEXITED 0 -> ()
    | _ -> prerr_endline "perfbench: a first-call child ended abnormally"
  done;
  float_of_int !raised

(* ---- set-up time ---- *)

(* A set-up trial returns the seconds from just before its set-up call to
   its first result, and whether it succeeded (the caller counts a failed
   trial as a failed operation). Trials run in two groups, before and
   after the timed phase, so that one slow spell of the host does not set
   the whole median. *)
let repeat n trial acc =
  for _ = 1 to n do
    acc := trial () :: !acc
  done

let setup_median trials =
  let oks = List.filter_map (fun (dt, ok) -> if ok then Some dt else None) trials in
  median (Array.of_list (if oks = [] then List.map fst trials else oks))

let serve_setup_trial small ops () =
  let t0 = Clock.now_ns () in
  prime_lazy_counters ();
  let srv = Server.start Server.default_config in
  let op = make small 0 t0 in
  submit srv ~trace:false op;
  await srv op;
  let dt = float_of_int (Clock.now_ns () - t0) *. 1e-9 in
  stop srv;
  ops := op :: !ops;
  (dt, done_ok op <> None)

let offline_setup_trial inp answers () =
  let t0 = Clock.now_ns () in
  prime_lazy_counters ();
  let a = attempt (solve_spd_2 inp.spd inp.b) in
  let dt = float_of_int (Clock.now_ns () - t0) *. 1e-9 in
  answers := a :: !answers;
  (dt, match a with Error _ -> false | _ -> true)

(* ---- layer probes (traced runs): timed around single calls ---- *)

let probe_ns ~reps f =
  median
    (Array.init reps (fun _ ->
         let t = Clock.now_ns () in
         f ();
         float_of_int (Clock.now_ns () - t)))

(* Seconds per call of [f], repeated for about [seconds]. *)
let rate_probe ?(seconds = 0.1) f =
  f ();
  let t0 = Clock.now_ns () in
  let until = t0 + Float.to_int (seconds *. 1e9) in
  let calls = ref 0 in
  while Clock.now_ns () < until do
    f ();
    incr calls
  done;
  float_of_int (Clock.now_ns () - t0) *. 1e-9 /. float_of_int !calls

let pblas_probes () =
  let nb = Packed.tuned_nb ~fallback:64 in
  let tile = nb * nb in
  (* tile 0: an SPD source; tiles 1 and 2: operands; tile 3: the output *)
  let buf = Bigarray.(Array1.create float64 c_layout (4 * tile)) in
  let rng = Rng.create 1 in
  for i = 0 to (4 * tile) - 1 do
    buf.{i} <- Rng.uniform rng
  done;
  for i = 0 to nb - 1 do
    for j = 0 to nb - 1 do
      buf.{(i * nb) + j} <- (if i = j then float_of_int nb else 0.5 /. float_of_int (1 + i + j))
    done
  done;
  let gf flops s = flops /. s /. 1e9 in
  let copy_spd () = Bigarray.Array1.(blit (sub buf 0 tile) (sub buf (3 * tile) tile)) in
  let t_copy = rate_probe copy_spd in
  [
    ( "pblas.gemm_nn.gflops",
      gf (Pblas.gemm_flops nb)
        (rate_probe (fun () -> Pblas.D.gemm_nn ~alpha:1e-9 buf tile buf (2 * tile) buf (3 * tile) ~nb)) );
    ( "pblas.syrk_ln.gflops",
      gf (Pblas.syrk_flops nb)
        (rate_probe (fun () -> Pblas.D.syrk_ln ~alpha:(-1e-9) buf tile ~beta:1.0 buf (3 * tile) ~nb)) );
    ("pblas.trsm_rlt.gflops", gf (Pblas.trsm_flops nb) (rate_probe (fun () -> Pblas.D.trsm_rlt buf 0 buf (2 * tile) ~nb)));
    ( "pblas.potrf.gflops",
      (* each call factors a fresh copy of the SPD tile; the copy's own
         time is subtracted *)
      gf (Pblas.potrf_flops nb)
        (rate_probe (fun () ->
             copy_spd ();
             Pblas.D.potrf buf (3 * tile) ~nb)
        -. t_copy) );
  ]

(* Probe inputs come from one fixed seed, so every run probes the same
   problems. *)
let layer_probes () =
  let seed = 0 in
  let one kind n = (loadgen_cls ~seed ~n ~kinds:[| kind |] ~pool:1 ~deadline_s:1.0).payloads.(0) in
  let direct_us p = probe_ns ~reps:400 (fun () -> ignore (Route.direct p)) /. 1e3 in
  let spd48 = one Loadgen.Spd 48 and cg24 = one Loadgen.Cg 24 in
  let large = (large_cls ~seed).payloads.(0) in
  let pool_run_ms =
    let pool = Pool.create ~workers:2 () in
    let ms =
      probe_ns ~reps:5 (fun () ->
          let p = Route.plan ~key:0 large in
          ignore (Pool.run ?interp:p.Route.interp pool p.Route.dag);
          ignore (p.Route.finish ()))
      /. 1e6
    in
    Pool.shutdown pool;
    ms
  in
  let lap24 = Stencil.poisson_3d 24 in
  let x24 = Vec.random (Rng.create seed) lap24.Csr.rows and y24 = Vec.create lap24.Csr.rows in
  let spmv_s = rate_probe (fun () -> Csr.mul_vec_into lap24 x24 y24) in
  let iterations grid =
    let a = Stencil.poisson_3d grid in
    let _, b = Stencil.exact_rhs a in
    float_of_int (Cg.solve ~tol:cg_tol ~max_iter:(30 * grid) a b).Cg.iterations
  in
  [
    ("route.direct_us.spd48", direct_us spd48);
    ("route.direct_us.lu48", direct_us (one Loadgen.General 48));
    ("route.direct_us.gemm48", direct_us (one Loadgen.Product 48));
    ("route.direct_ms.spd768", probe_ns ~reps:5 (fun () -> ignore (Route.direct large)) /. 1e6);
    ("route.direct_ms.cg24", probe_ns ~reps:5 (fun () -> ignore (Route.direct cg24)) /. 1e6);
    ("route.plan_us.spd48", probe_ns ~reps:2000 (fun () -> (Route.plan ~key:0 spd48).Route.cleanup ()) /. 1e3);
    ("pool.run_ms.spd768", pool_run_ms);
    ("csr.spmv_gflops.grid24", Csr.spmv_flops lap24 /. spmv_s /. 1e9);
    ("csr.spmv_gbps_computed.grid24", Csr.spmv_bytes lap24 /. spmv_s /. 1e9);
    ("cg.iterations.grid24", iterations 24);
    ("cg.iterations.grid32", iterations 32);
  ]
  @ pblas_probes ()

(* ---- workloads ---- *)

type outcome = {
  setup_s : float;
  untraced : pass;
  traced : pass option;
  whole_run : (string * float) list;
      (** per-layer figures over the whole run: the server's span records,
          or offline the first-call count *)
  t : tally;
}

(* With --trace 1 the timed phase runs twice at half length, untraced
   then traced, so the two can be compared. *)
let passes ~trace ~seconds run =
  if trace then
    let u = run ~trace:false ~seconds:(seconds /. 2.0) in
    (u, Some (run ~trace:true ~seconds:(seconds /. 2.0)))
  else (run ~trace:false ~seconds, None)

let serve_workload ~name ~seed ~seconds ~trace =
  let t = tally () in
  let kinds =
    if name = "serve-small" then [| Loadgen.Spd; Loadgen.General; Loadgen.Product |]
    else [| Loadgen.Spd; Loadgen.General |]
  in
  (* Set-up first, on a small heap: the payload pools come after it. *)
  let first = small_cls ~pool:1 ~seed kinds in
  let trials = ref [] and setup_ops = ref [] in
  let setup = serve_setup_trial first setup_ops in
  repeat 21 setup trials;
  let small = small_cls ~seed kinds in
  let run, classes =
    if name = "serve-small" then
      ((fun srv ~trace ~seconds -> serve_small_pass srv t ~trace ~seed ~seconds small), [ first; small ])
    else
      let large = large_cls ~seed in
      ((fun srv ~trace ~seconds -> serve_large_pass srv t ~trace ~seed ~seconds small large), [ first; small; large ])
  in
  (* Oracles run after set-up, so nothing is forced single-threaded
     before it, and before the timed phase, which they would disturb. *)
  List.iter compute_refs classes;
  let srv = Server.start Server.default_config in
  (* Warm-up, not timed: pools, scratch and lazy state settle. *)
  let warm = run_open srv ~trace:false small ~seed:(seed + 2) ~rate_hz:200.0 ~seconds:0.5 in
  Array.iter (await srv) warm;
  check t warm;
  let untraced, traced = passes ~trace ~seconds (run srv) in
  stop srv;
  repeat 20 setup trials;
  check t (Array.of_list !setup_ops);
  let c = Server.counters srv in
  let whole_run =
    [
      ( "span.records_per_req",
        ratio (float_of_int (List.length (Server.span_records srv))) (float_of_int (c.Server.completed + c.Server.failed)) );
      ("span.dropped", float_of_int (Server.span_dropped srv));
    ]
  in
  { setup_s = setup_median !trials; untraced; traced; whole_run; t }

let offline_workload ~seed ~seconds ~trace =
  let t = tally () in
  let inp = offline_inputs ~seed in
  let answers = ref [] in
  let trials = ref [] in
  let setup = offline_setup_trial inp answers in
  repeat 15 setup trials;
  let untraced, traced = passes ~trace ~seconds (fun ~trace:_ ~seconds -> offline_pass ~seconds inp answers) in
  repeat 15 setup trials;
  check_answers t !answers;
  let whole_run = if trace then [ ("solver.first_call_raised", first_call_raised ()) ] else [] in
  { setup_s = setup_median !trials; untraced; traced; whole_run; t }

(* ---- output ---- *)

let e2e o p =
  [
    Record.metric "small_p50_ms" "ms" (median p.small);
    Record.metric "heavy_p50_ms" "ms" (median p.heavy);
    Record.metric "ok_share" "ratio" (1.0 -. ratio (float_of_int (misses o.t)) (float_of_int o.t.attempted));
    Record.metric "setup_s" "s" o.setup_s;
  ]

(* Every per-layer metric with its unit, in output order. A metric whose
   layer the workload does not run reads 0. *)
let layer_units =
  [
    ("loadgen.late_p50_ms", "ms"); ("loadgen.late_p99_ms", "ms"); ("loadgen.offered_ratio", "ratio");
    ("server.submit_us_p50", "us"); ("server.submit_us_p99", "us"); ("server.rejected", "count");
    ("serve.queue_wait_ms_p50", "ms"); ("serve.queue_wait_ms_p99", "ms");
    ("serve.service_ms_p50", "ms"); ("serve.service_ms_p99", "ms");
    ("serve.mean_batch", "req/batch"); ("serve.cap_deferred", "count");
    ("route.direct_us.spd48", "us"); ("route.direct_us.lu48", "us"); ("route.direct_us.gemm48", "us");
    ("route.direct_ms.spd768", "ms"); ("route.direct_ms.cg24", "ms"); ("route.plan_us.spd48", "us");
    ("scratch.hit_ratio", "ratio"); ("serve.alloc_minor_words_per_req", "words");
    ("gc.minor_per_kreq", "count"); ("heap_growth_mb", "MB");
    ("pool.tasks_per_req", "count"); ("pool.deadline_yields", "count");
    ("runtime.steals", "count"); ("runtime.park_ms", "ms"); ("pool.run_ms.spd768", "ms");
    ("real_exec.steals", "count"); ("real_exec.busy_share", "ratio");
    ("solver.first_call_raised", "count");
    ("pblas.gemm_nn.gflops", "GF/s"); ("pblas.syrk_ln.gflops", "GF/s");
    ("pblas.trsm_rlt.gflops", "GF/s"); ("pblas.potrf.gflops", "GF/s"); ("blas.flops_per_req", "flop");
    ("csr.spmv_gflops.grid24", "GF/s"); ("csr.spmv_gbps_computed.grid24", "GB/s");
    ("cg.iterations.grid24", "count"); ("cg.iterations.grid32", "count");
    ("span.records_per_req", "count"); ("span.dropped", "count");
    ("trace.overhead_share.small_p50_ms", "ratio"); ("trace.overhead_share.heavy_p50_ms", "ratio");
    ("small_p99_ms", "ms"); ("small.samples", "count");
    ("heavy_tail_ms", "ms"); ("heavy.tail_q", "percentile"); ("heavy.samples", "count");
    ("small_sat_rps", "1/s"); ("small_hi_p50_ms", "ms"); ("small_hi_p99_ms", "ms");
    ("offline_spd_gflops", "GF/s"); ("offline_lu_gflops", "GF/s"); ("offline_cg_ms", "ms");
    ("miss_share", "ratio");
  ]

(* Tails, with the sample counts behind them: reported, but not bounded
   (README.md gives their run-to-run spread). *)
let tails p =
  let h = Pct.summarize p.heavy in
  [
    ("small_p99_ms", Pct.percentile p.small 99.0);
    ("small.samples", float_of_int (Array.length p.small));
    ("heavy_tail_ms", h.Pct.tail);
    ("heavy.tail_q", h.Pct.tail_q);
    ("heavy.samples", float_of_int h.Pct.samples);
  ]

let layer_metrics o ~untraced ~traced =
  let overhead =
    List.map2
      (fun (u : Record.metric) (m : Record.metric) ->
        ("trace.overhead_share." ^ u.Record.name, ratio m.Record.value u.Record.value -. 1.0))
      (e2e o untraced) (e2e o traced)
  in
  let values =
    traced.named @ traced.layers @ layer_probes () @ overhead @ o.whole_run @ tails traced
    @ [ ("miss_share", ratio (float_of_int (misses o.t)) (float_of_int o.t.attempted)) ]
  in
  List.map
    (fun (name, unit_) ->
      let v = match List.assoc_opt name values with Some v when Float.is_finite v -> v | _ -> 0.0 in
      Record.metric name unit_ v)
    layer_units

let print_human ~name o =
  let p = o.untraced in
  Printf.printf "workload %s\n" name;
  List.iter
    (fun (m : Record.metric) -> Printf.printf "  %s = %.6g %s\n" m.Record.name m.Record.value m.Record.unit_)
    (e2e o p @ List.map (fun (n, v) -> Record.metric n (List.assoc n layer_units) v) (tails p @ p.named));
  Printf.printf "  checks: attempted %d  failed %d  wrong %d  late %d\n" o.t.attempted o.t.failed o.t.wrong o.t.late;
  List.iter (fun (cause, n) -> Printf.printf "  failed %d: %s\n" n cause) o.t.causes;
  flush stdout

let workloads = [ "serve-small"; "serve-large"; "offline-solve" ]

let usage () =
  prerr_endline ("usage: main.exe --workload " ^ String.concat "|" workloads ^ " --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let num f v = try f v with _ -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := num int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := num float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := num int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (match Array.to_list Sys.argv with
  | [ _; "--first-call-child"; seed ] -> first_call_child (num int_of_string seed)
  | _ -> ());
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then usage ();
  let name = !workload and seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let o =
    if name = "offline-solve" then offline_workload ~seed ~seconds ~trace
    else serve_workload ~name ~seed ~seconds ~trace
  in
  print_human ~name o;
  let metrics =
    match o.traced with
    | None -> e2e o o.untraced
    | Some traced -> layer_metrics o ~untraced:o.untraced ~traced
  in
  print_endline (Record.line ~correct:(o.t.wrong = 0) ~attempted:o.t.attempted ~failed:o.t.failed metrics);
  (* ends the process even when an unstopped server's domains still run *)
  exit 0
