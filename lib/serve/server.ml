(* The concurrent solver service: admission -> bounded ingress queue ->
   dynamic batcher -> EDF ready heap -> the shared deadline-aware task
   pool.

   Concurrency structure: submit-side state is atomics (the admission
   window) plus the bounded ingress queue; batcher and EDF heap are owned
   by whichever domain holds the single state mutex, so they stay simple
   single-threaded data structures.

   One event-driven pump domain feeds the pool. Each pass drains the
   ingress into the batcher, flushes every open batch at once (a batch
   buys nothing here: each member becomes its own pool DAG, and the pool
   already orders tasks by deadline), resubmits due retries and claims
   eligible batches. With nothing to do it blocks on a [Condition]; every
   producer of pump work wakes it — [submit] after an accepted push, a
   pool completion on a retry enqueue or a freed class-cap slot, the last
   completion during [stop], and [stop] itself. An idle server therefore
   costs no CPU. The one timed sleep left is while a retry backoff is
   pending (OCaml's [Condition] has no timed wait).

   Fault isolation is per request: batch members run as independent pool
   jobs, so one singular matrix or injected fault fails exactly one
   request with a typed error; transient injected faults are retried with
   exponential backoff; the server itself never goes down from a request
   failure.

   The admission window is measured against actual in-flight work, so
   backpressure engages whenever service lags offered load, not only when
   the ingress ring itself is momentarily full: a request occupies it
   from admission until its attempt leaves the pool (the top of the pool's
   completion callback, before the ticket resolves — so a client that
   resubmits the moment its answer arrives finds the slot already free).
   A request waiting out a transient retry backoff holds no pool lane, so
   it does not count against the window — admission keeps flowing while
   retries sleep, and in-system memory is bounded by [capacity] plus the
   (transient) backoff population. *)

module Clock = Xsc_obs.Clock
module Metrics = Xsc_obs.Metrics
module Span = Xsc_obs.Span
module Gcstat = Xsc_obs.Gcstat
module Trace = Xsc_runtime.Trace
module Real_exec = Xsc_runtime.Real_exec
module Pool = Xsc_runtime.Pool
module Harness = Xsc_resilience.Harness
module Flight = Xsc_resilience.Flight

(* the longest pump sleep while a retry backoff is pending *)
let poll_s = 0.0002

let m_admitted = Metrics.counter "serve.admitted"
let m_rejected = Metrics.counter "serve.rejected"
let m_completed = Metrics.counter "serve.completed"
let m_failed = Metrics.counter "serve.failed"
let m_retried = Metrics.counter "serve.retried"
let m_batches = Metrics.counter "serve.batches"
let m_batch_size = Metrics.histogram "serve.batch_size"
let m_queue_wait = Metrics.histogram "serve.queue_wait_s"
let m_service = Metrics.histogram "serve.service_s"
let m_total = Metrics.histogram "serve.total_s"

(* per-request minor-heap allocation estimate (plan construction plus
   solve-and-release): the "zero-allocation steady state" as a
   benchmarked number *)
let m_alloc = Metrics.histogram "serve.alloc_minor_words_per_req"

(* Every request's DAG runs in one shared deadline-aware task pool
   ({!Xsc_runtime.Pool}) on [lanes] persistent worker domains — no
   per-request executor, no per-request barrier, and the request's EDF
   deadline travels down to *task* granularity, so a small request entering
   while a large factorization streams waits ~one task, not the tail of
   the large DAG. *)
type config = {
  lanes : int;
  capacity : int;
  max_batch : int;
  default_deadline_s : float;
  max_retries : int;
  retry_backoff_s : float;
  spans : bool;
  slos : Slo.objective list;
  flight_path : string option;
  class_caps : (string * int) list;
}

let default_config =
  {
    lanes = 2;
    capacity = 64;
    max_batch = 8;
    default_deadline_s = 0.25;
    max_retries = 3;
    retry_backoff_s = 0.0005;
    spans = true;
    slos = [];
    flight_path = None;
    class_caps = [];
  }

type ticket = {
  t_mu : Mutex.t;
  t_cv : Condition.t;
  mutable result : Request.completion option;
}

type counters = {
  admitted : int;
  rejected : int;
  completed : int;
  failed : int;
  retried : int;
  batches : int;
  cap_deferred : int;
}

(* Class-aware dispatch: a per-kind concurrency cap on how many of a
   class's DAGs may be live in the shared pool at once. [cc_live] counts
   attempt submissions (incremented before Pool.submit, decremented on the
   attempt's completion callback); a retry asleep in backoff holds no cap
   slot, mirroring the admission window's pool-depth accounting. *)
type class_cap = { cc_kind : string; cc_cap : int; cc_live : int Atomic.t }

(* A transiently-faulted request waiting out its retry backoff: the pump
   resubmits it when due instead of a pool worker sleeping in a callback
   (a sleeping callback would block a whole execution lane). *)
type retry_entry = {
  re_due_ns : int;
  re_req : Request.t;
  re_attempt : int;  (* attempts already consumed *)
  re_dispatch_ns : int;  (* first submit-to-pool time, held across retries *)
}

type t = {
  cfg : config;
  harness : Harness.t option;
  collector : Span.collector option;
  slo : Slo.t option;
  ingress : Request.t Queue.t;
  pool : Pool.t;
  caps : class_cap array;
  c_cap_deferred : int Atomic.t;
  (* ---- batching state and tickets, under [mu] ---- *)
  mu : Mutex.t;
  batcher : Request.t Batcher.t;
  sched : Request.t Scheduler.t;
  tickets : (int, ticket) Hashtbl.t;
  (* ---- retry queue, under [retry_mu] ---- *)
  retry_mu : Mutex.t;
  mutable retry_q : retry_entry list;
  (* ---- pump wakeup ---- *)
  pump_gen : int Atomic.t;  (* bumped by every producer of pump work *)
  pump_waiting : bool Atomic.t;  (* the pump is (about to be) blocked *)
  wake_mu : Mutex.t;
  wake_cv : Condition.t;
  (* ---- submit-side state ---- *)
  in_system : int Atomic.t;  (* admitted and not yet completed *)
  occupied : int Atomic.t;
  (* the admission occupancy: requests from admission until their attempt
     leaves the pool (ingress, batcher, EDF heap, dispatch, live in the
     pool), plus retries resubmitted into it. A retry sleeping out its
     backoff is not counted — by design. *)
  next_id : int Atomic.t;
  stopping : bool Atomic.t;
  start_ns : int;
  c_admitted : int Atomic.t;
  c_rejected : int Atomic.t;
  c_completed : int Atomic.t;
  c_failed : int Atomic.t;
  c_retried : int Atomic.t;
  c_batches : int Atomic.t;
  mutable pump : unit Domain.t option;
}

(* lane layout in the exported trace: pool workers 0..lanes-1, queue-wait
   spans on one extra virtual lane *)
let queue_lane cfg = cfg.lanes

(* Publish-then-wake, the mirror of the pump's [park]: a producer makes its
   work visible, bumps [pump_gen], then reads [pump_waiting]; the pump sets
   [pump_waiting], then re-reads [pump_gen] under [wake_mu] before it
   waits. If that re-read misses the bump, the producer's read of the flag
   came after the pump set it, so the producer signals — and [wake_mu]
   orders the signal after the pump is inside [Condition.wait]. While the
   pump is awake a producer pays two atomics and no syscall. *)
let wake t =
  Atomic.incr t.pump_gen;
  if Atomic.get t.pump_waiting then begin
    Mutex.lock t.wake_mu;
    Condition.signal t.wake_cv;
    Mutex.unlock t.wake_mu
  end

(* A request leaves the system. The last one out during [stop] wakes the
   pump, which exits once nothing is in-system. *)
let leave t = if Atomic.fetch_and_add t.in_system (-1) = 1 && Atomic.get t.stopping then wake t

(* ---- request completion ---- *)

let complete t (r : Request.t) outcome ~retries ~dispatch_ns =
  let finish_ns = Clock.now_ns () in
  let queue_wait_s = Clock.ns_to_s (dispatch_ns - r.Request.submit_ns) in
  let service_s = Clock.ns_to_s (finish_ns - dispatch_ns) in
  let total_s = Clock.ns_to_s (finish_ns - r.Request.submit_ns) in
  Metrics.observe m_queue_wait queue_wait_s;
  Metrics.observe m_service service_s;
  Metrics.observe m_total total_s;
  (match outcome with
  | Ok _ ->
    Atomic.incr t.c_completed;
    Metrics.incr m_completed
  | Error _ ->
    Atomic.incr t.c_failed;
    Metrics.incr m_failed);
  let completion =
    {
      Request.request = r;
      outcome;
      retries;
      queue_wait_s;
      service_s;
      total_s;
      met_deadline = finish_ns <= r.Request.deadline_ns;
    }
  in
  Mutex.lock t.mu;
  let ticket = Hashtbl.find_opt t.tickets r.Request.id in
  Hashtbl.remove t.tickets r.Request.id;
  Mutex.unlock t.mu;
  (* causal span records: the wait segment and the root request segment
     (attempt segments were recorded as they ran). The root closes last,
     so by the time a flight dump triggers below, the ring holds the
     request's whole chain. *)
  (match t.collector with
  | None -> ()
  | Some col ->
    let key = Request.class_key r.Request.payload in
    let wait = Span.child r.Request.span in
    Span.record col
      {
        Span.request = r.Request.id;
        span = wait.Span.span;
        parent = wait.Span.parent;
        phase = "wait";
        name = Printf.sprintf "wait:%s" key;
        lane = queue_lane t.cfg;
        attempt = 0;
        start_ns = r.Request.submit_ns;
        finish_ns = dispatch_ns;
      };
    Span.record col
      {
        Span.request = r.Request.id;
        span = r.Request.span.Span.span;
        parent = -1;
        phase = "request";
        name = Printf.sprintf "%s(%d)" key r.Request.id;
        lane = -1;
        attempt = retries;
        start_ns = r.Request.submit_ns;
        finish_ns;
      });
  (* SLO burn-rate monitor; entering breach triggers a post-mortem dump *)
  (match t.slo with
  | None -> ()
  | Some slo ->
    let newly_breached =
      Slo.observe slo
        ~kind:(Request.kind_name r.Request.payload)
        ~id:r.Request.id ~latency_s:total_s
        ~failed:(Result.is_error outcome)
    in
    if newly_breached then
      match t.cfg.flight_path with
      | Some path ->
        ignore
          (Flight.dump_once ~path
             ~reason:
               (Printf.sprintf "slo-breach: class %s (request %d)"
                  (Request.kind_name r.Request.payload)
                  r.Request.id))
      | None -> ());
  (* permanent request failure: first one dumps the flight recorder *)
  (match (outcome, t.cfg.flight_path) with
  | Error (Request.Failed _), Some path ->
    ignore
      (Flight.dump_once ~path
         ~reason:(Printf.sprintf "permanent-failure: request %d after %d retries" r.Request.id retries))
  | _ -> ());
  (match ticket with
  | Some tk ->
    Mutex.lock tk.t_mu;
    tk.result <- Some completion;
    Condition.broadcast tk.t_cv;
    Mutex.unlock tk.t_mu
  | None -> ());
  (* last: a request leaves the in-system count only once fully settled *)
  leave t

(* ---- dispatch ---- *)

(* One attempt of one request as a pool job: build a fresh plan (fresh
   scratch cell, fresh fault wrapping), submit its DAG with the request's
   deadline and attempt span context, and let the completion callback —
   running on the pool worker that drained the job — assemble the
   solution, queue a retry, or settle the request. No thread ever blocks
   per request; concurrency lives entirely in the shared pool. *)
let cap_for t kind =
  let n = Array.length t.caps in
  let rec go i =
    if i >= n then None
    else if t.caps.(i).cc_kind = kind then Some t.caps.(i)
    else go (i + 1)
  in
  go 0

let rec submit_to_pool t (r : Request.t) ~attempt ~dispatch_ns =
  (* a first attempt already holds the [occupied] slot claimed at
     admission; a retry takes one again while it is back in the pool *)
  if attempt > 0 then Atomic.incr t.occupied;
  let m0 = Gcstat.minor_words () in
  let plan = Route.plan ?harness:t.harness ~key:r.Request.id r.Request.payload in
  let plan_alloc = Gcstat.minor_words () -. m0 in
  let actx = Option.map (fun _ -> Span.child r.Request.span) t.collector in
  let t0 = Clock.now_ns () in
  let note_attempt ~worker =
    match (t.collector, actx) with
    | Some col, Some ctx ->
      Span.record col
        {
          Span.request = r.Request.id;
          span = ctx.Span.span;
          parent = ctx.Span.parent;
          phase = "attempt";
          name = Request.class_key r.Request.payload;
          lane = worker;
          attempt;
          start_ns = t0;
          finish_ns = Clock.now_ns ();
        }
    | _ -> ()
  in
  let cap = cap_for t (Request.kind_name r.Request.payload) in
  (match cap with Some cc -> Atomic.incr cc.cc_live | None -> ());
  Pool.submit ?interp:plan.Route.interp ~deadline_ns:r.Request.deadline_ns ?sctx:actx
    t.pool plan.Route.dag ~on_done:(fun failure ~worker ->
      (* the attempt left the pool: free its admission slot before the
         ticket resolves, and its class-cap slot, so the pump can dispatch
         the class's next batch while we settle this one *)
      Atomic.decr t.occupied;
      (match cap with
      | Some cc ->
        Atomic.decr cc.cc_live;
        wake t
      | None -> ());
      note_attempt ~worker;
      match failure with
      | None -> (
        let m1 = Gcstat.minor_words () in
        match plan.Route.finish () with
        | sol ->
          (* per-request allocation: plan construction (pump domain) plus
             solve-and-release (this domain); the factorization tasks
             themselves run in place over pooled buffers *)
          Metrics.observe m_alloc (plan_alloc +. (Gcstat.minor_words () -. m1));
          complete t r (Ok sol) ~retries:attempt ~dispatch_ns
        | exception e ->
          plan.Route.cleanup ();
          complete t r
            (Error (Request.Failed { attempts = attempt + 1; error = Printexc.to_string e }))
            ~retries:attempt ~dispatch_ns)
      | Some f -> (
        plan.Route.cleanup ();
        match f.Real_exec.error with
        | Harness.Injected _ when attempt < t.cfg.max_retries ->
          (* transient: hand the request back to the pump with a due time
             instead of sleeping here — a sleeping callback would block
             one of the pool's execution lanes *)
          Atomic.incr t.c_retried;
          Metrics.incr m_retried;
          let backoff_ns =
            int_of_float (t.cfg.retry_backoff_s *. ldexp 1.0 attempt *. 1e9)
          in
          let entry =
            {
              re_due_ns = Clock.now_ns () + backoff_ns;
              re_req = r;
              re_attempt = attempt + 1;
              re_dispatch_ns = dispatch_ns;
            }
          in
          Mutex.lock t.retry_mu;
          t.retry_q <- entry :: t.retry_q;
          Mutex.unlock t.retry_mu;
          wake t
        | e ->
          complete t r
            (Error (Request.Failed { attempts = attempt + 1; error = Printexc.to_string e }))
            ~retries:attempt ~dispatch_ns))

(* Resubmit every due retry; returns the earliest due time still pending. *)
and service_retries t =
  let now = Clock.now_ns () in
  Mutex.lock t.retry_mu;
  let due, later = List.partition (fun e -> e.re_due_ns <= now) t.retry_q in
  t.retry_q <- later;
  Mutex.unlock t.retry_mu;
  List.iter
    (fun e ->
      submit_to_pool t e.re_req ~attempt:e.re_attempt ~dispatch_ns:e.re_dispatch_ns)
    (* oldest due first, so equal-backoff retries resubmit in fault order *)
    (List.sort (fun a b -> compare a.re_due_ns b.re_due_ns) due);
  match later with
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun m e -> min m e.re_due_ns) e.re_due_ns rest)

(* A claimed batch is a dispatch unit only: each member becomes its own
   DAG submission (sharing the batch's dispatch stamp), and the pool
   interleaves their tasks with everything else in flight. *)
let dispatch_batch t (batch : Request.t Batcher.batch) =
  let dispatch_ns = Clock.now_ns () in
  Atomic.incr t.c_batches;
  Metrics.incr m_batches;
  Metrics.observe m_batch_size (float_of_int (Array.length batch.Batcher.requests));
  Array.iter (fun r -> submit_to_pool t r ~attempt:0 ~dispatch_ns) batch.Batcher.requests

(* ---- the pump ---- *)

let kind_of_class_key key =
  match String.index_opt key ':' with
  | Some i -> String.sub key 0 i
  | None -> key

(* Class-aware eligibility: a batch whose kind has a concurrency cap waits
   (keeping its EDF place) while the class already has [cap] attempts live
   in the pool. The cap is checked at batch granularity, so a batch may
   overshoot it by its own size minus one — per-class batching already
   keeps sparse batches separate, and the bench's sparse classes batch
   small. *)
let batch_eligible t (b : Request.t Batcher.batch) =
  match cap_for t (kind_of_class_key b.Batcher.class_key) with
  | None -> true
  | Some cc ->
    let ok = Atomic.get cc.cc_live < cc.cc_cap in
    if not ok then Atomic.incr t.c_cap_deferred;
    ok

(* Pump admitted requests through the batcher into the EDF heap and claim
   the most urgent eligible batch. One state lock covers ingress drain,
   flush and claim, so batches can never be claimed twice. Every open
   batch flushes at once; ineligible batches keep their EDF place in the
   heap. *)
let next_batch t =
  Mutex.lock t.mu;
  let now = Clock.now_ns () in
  let rec drain () =
    match Queue.try_pop t.ingress with
    | None -> ()
    | Some req ->
      (match Batcher.add t.batcher ~now_ns:now req with
      | Some b -> Scheduler.push t.sched b
      | None -> ());
      drain ()
  in
  drain ();
  List.iter (Scheduler.push t.sched) (Batcher.flush_all t.batcher);
  let b = Scheduler.pop_when (batch_eligible t) t.sched in
  Mutex.unlock t.mu;
  b

(* The pump's idle wait (see [wake]): block unless some producer has
   published work since the pass that found none began at [gen]. *)
let park t gen =
  Atomic.set t.pump_waiting true;
  Mutex.lock t.wake_mu;
  if Atomic.get t.pump_gen = gen then Condition.wait t.wake_cv t.wake_mu;
  Mutex.unlock t.wake_mu;
  Atomic.set t.pump_waiting false

(* The one pump domain: it drains admission into the batcher, dispatches
   claimed batches into the pool without blocking on them, and resubmits
   due retries. It exits only when nothing is in-system — every
   admitted request has fully settled through its completion callback —
   and the ingress is closed: a submit that raced [stop] either counted
   itself in-system before the close or finds the ingress closed. *)
let rec pump_loop t =
  let gen = Atomic.get t.pump_gen in
  let next_retry_ns = service_retries t in
  match next_batch t with
  | Some b ->
    dispatch_batch t b;
    pump_loop t
  | None ->
    if Queue.is_closed t.ingress && Atomic.get t.in_system = 0 then ()
    else begin
      (match next_retry_ns with
      | None -> park t gen
      | Some due_ns ->
        Unix.sleepf (Float.min poll_s (Float.max 0.0 (Clock.ns_to_s (due_ns - Clock.now_ns ())))));
      pump_loop t
    end

(* ---- lifecycle ---- *)

let start ?harness cfg =
  if cfg.lanes < 1 then invalid_arg "Server.start: lanes must be >= 1";
  if cfg.capacity < 1 then invalid_arg "Server.start: capacity must be >= 1";
  if cfg.max_batch < 1 then invalid_arg "Server.start: max_batch must be >= 1";
  if cfg.default_deadline_s <= 0.0 then
    invalid_arg "Server.start: default_deadline_s must be positive";
  if cfg.max_retries < 0 then invalid_arg "Server.start: max_retries must be >= 0";
  if cfg.retry_backoff_s < 0.0 then invalid_arg "Server.start: retry_backoff_s must be >= 0";
  List.iter
    (fun (kind, cap) ->
      if kind = "" then invalid_arg "Server.start: class_caps kind must be non-empty";
      if cap < 1 then invalid_arg "Server.start: class_caps cap must be >= 1")
    cfg.class_caps;
  let collector =
    if cfg.spans then
      (* tee into the flight recorder only when a dump could ever be
         written; the collector itself always keeps the trace *)
      Some
        (match cfg.flight_path with
        | Some _ -> Span.collector ~tee:Flight.note_span ()
        | None -> Span.collector ())
    else None
  in
  let t =
    {
      cfg;
      harness;
      collector;
      slo = (match cfg.slos with [] -> None | slos -> Some (Slo.create slos));
      ingress = Queue.create ~capacity:cfg.capacity;
      pool = Pool.create ~workers:cfg.lanes ();
      caps =
        Array.of_list
          (List.map
             (fun (kind, cap) ->
               { cc_kind = kind; cc_cap = cap; cc_live = Atomic.make 0 })
             cfg.class_caps);
      c_cap_deferred = Atomic.make 0;
      mu = Mutex.create ();
      batcher = Batcher.create { Batcher.max_batch = cfg.max_batch; linger_ns = 0 };
      sched = Scheduler.create ();
      tickets = Hashtbl.create 64;
      retry_mu = Mutex.create ();
      retry_q = [];
      pump_gen = Atomic.make 0;
      pump_waiting = Atomic.make false;
      wake_mu = Mutex.create ();
      wake_cv = Condition.create ();
      in_system = Atomic.make 0;
      occupied = Atomic.make 0;
      next_id = Atomic.make 0;
      stopping = Atomic.make false;
      start_ns = Clock.now_ns ();
      c_admitted = Atomic.make 0;
      c_rejected = Atomic.make 0;
      c_completed = Atomic.make 0;
      c_failed = Atomic.make 0;
      c_retried = Atomic.make 0;
      c_batches = Atomic.make 0;
      pump = None;
    }
  in
  (* install process-wide so layers below (executors, harness, ABFT)
     can parent their segments onto whatever request is ambient *)
  (match collector with Some _ -> Span.install collector | None -> ());
  (* execution concurrency lives in the pool; one pump feeds it *)
  t.pump <- Some (Domain.spawn (fun () -> pump_loop t));
  t

let reject t reason =
  Atomic.incr t.c_rejected;
  Metrics.incr m_rejected;
  Error (Request.Rejected reason)

(* Admission occupancy against [capacity]: actual in-flight work —
   requests travelling towards the shared pool or live in it. A request
   asleep in the retry queue holds no pool lane and is not counted, so a
   transient-fault storm does not wedge the admission window shut while
   everyone waits out backoff. *)
let occupancy t = Atomic.get t.occupied

let submit t ?deadline_s payload =
  Request.validate payload;
  let deadline_s = Option.value deadline_s ~default:t.cfg.default_deadline_s in
  if deadline_s <= 0.0 then invalid_arg "Server.submit: deadline must be positive";
  if Atomic.get t.stopping then reject t Request.Shutting_down
  else begin
    (* the admission window: claim a slot before queueing, release on
       leaving the pool — over-claim is undone immediately, so occupancy
       never stays above capacity *)
    if Atomic.fetch_and_add t.occupied 1 >= t.cfg.capacity then begin
      Atomic.decr t.occupied;
      reject t Request.Queue_full
    end
    else begin
      Atomic.incr t.in_system;
      let id = Atomic.fetch_and_add t.next_id 1 in
      let now = Clock.now_ns () in
      let req =
        {
          Request.id;
          payload;
          submit_ns = now;
          deadline_ns = now + int_of_float (deadline_s *. 1e9);
          span = Span.root ~request:id;
        }
      in
      let tk = { t_mu = Mutex.create (); t_cv = Condition.create (); result = None } in
      Mutex.lock t.mu;
      Hashtbl.add t.tickets id tk;
      Mutex.unlock t.mu;
      match Queue.try_push t.ingress req with
      | Queue.Accepted ->
        Atomic.incr t.c_admitted;
        Metrics.incr m_admitted;
        wake t;
        Ok tk
      | (Queue.Full | Queue.Closed) as pr ->
        Mutex.lock t.mu;
        Hashtbl.remove t.tickets id;
        Mutex.unlock t.mu;
        Atomic.decr t.occupied;
        leave t;
        reject t
          (if pr = Queue.Closed then Request.Shutting_down else Request.Queue_full)
    end
  end

let await _t tk =
  Mutex.lock tk.t_mu;
  while tk.result = None do
    Condition.wait tk.t_cv tk.t_mu
  done;
  let r = Option.get tk.result in
  Mutex.unlock tk.t_mu;
  r

let poll _t tk =
  Mutex.lock tk.t_mu;
  let r = tk.result in
  Mutex.unlock tk.t_mu;
  r

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Queue.close t.ingress;
    wake t;
    Option.iter Domain.join t.pump;
    (* the pump exits only at in_system = 0, so shutdown finds the pool
       quiescent — this join is the worker domains, not a drain *)
    Pool.shutdown t.pool;
    (* final post-mortem: workers have quiesced, so the ring now holds
       every failing request's complete chain — overwrite any mid-storm
       first-failure dump with the full picture *)
    (match t.cfg.flight_path with
    | Some path when Atomic.get t.c_failed > 0 ->
      ignore
        (Flight.dump ~path
           ~reason:(Printf.sprintf "server-stop: %d request(s) failed" (Atomic.get t.c_failed)))
    | _ -> ());
    (* uninstall only if the process-wide collector is still ours *)
    match (t.collector, Span.installed ()) with
    | Some mine, Some cur when mine == cur -> Span.install None
    | _ -> ()
  end

let in_flight t = Atomic.get t.in_system

let counters t =
  {
    admitted = Atomic.get t.c_admitted;
    rejected = Atomic.get t.c_rejected;
    completed = Atomic.get t.c_completed;
    failed = Atomic.get t.c_failed;
    retried = Atomic.get t.c_retried;
    batches = Atomic.get t.c_batches;
    cap_deferred = Atomic.get t.c_cap_deferred;
  }

let class_live t kind =
  match cap_for t kind with None -> 0 | Some cc -> Atomic.get cc.cc_live

let origin_ns t = t.start_ns
let span_records t = match t.collector with None -> [] | Some col -> Span.records col
let span_dropped t = match t.collector with None -> 0 | Some col -> Span.dropped col

let span_chrome_events t = Span.chrome_events ~origin_ns:t.start_ns (span_records t)
let span_chrome_json t = Span.to_chrome_json ~origin_ns:t.start_ns (span_records t)

let slo_reports t = match t.slo with None -> [] | Some s -> Slo.reports s
let slo_breached t = match t.slo with None -> false | Some s -> Slo.breached s
let slo_report_json t = Option.map Slo.report_json t.slo

(* The worker-lane view of the span records: each request's wait on the
   queue lane and each of its attempts on the pool lane that ran it (the
   pool reports lane -1 for a job with no tasks; it has no lane to show). *)
let trace t =
  let tr = Trace.create ~workers:(queue_lane t.cfg + 1) in
  List.iter
    (fun (s : Span.record) ->
      if (s.Span.phase = "wait" || s.Span.phase = "attempt") && s.Span.lane >= 0 then
        Trace.add tr
          {
            Trace.task = s.Span.request;
            name = Printf.sprintf "%s(%d)" s.Span.name s.Span.request;
            worker = s.Span.lane;
            start = Clock.ns_to_s (s.Span.start_ns - t.start_ns);
            finish = Clock.ns_to_s (s.Span.finish_ns - t.start_ns);
          })
    (span_records t);
  tr
