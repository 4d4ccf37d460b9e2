module Clock = Xsc_obs.Clock
module Metrics = Xsc_obs.Metrics
module Tracer = Xsc_obs.Tracer
module Span = Xsc_obs.Span

type stats = {
  elapsed : float;
  tasks : int;
  workers : int;
  steals : int;
  steal_attempts : int;
  parks : int;
  park_time : float;
  trace : Trace.t option;
}

type failure = {
  failed_task : int;
  failed_name : string;
  failed_worker : int;
  error : exn;
}

exception Task_failed of failure

let () =
  Printexc.register_printer (function
    | Task_failed f ->
      Some
        (Printf.sprintf "Real_exec.Task_failed(task %d %s on worker %d: %s)"
           f.failed_task f.failed_name f.failed_worker (Printexc.to_string f.error))
    | _ -> None)

(* Executor counters live in the process-wide registry (cumulative);
   {!Pool} keeps the steal and park counters. *)
let m_tasks = Metrics.counter "runtime.tasks_executed"
let m_barrier_ns = Metrics.counter "runtime.barrier_wait_ns"
let m_failures = Metrics.counter "runtime.task_failures"

let closure_of (task : Task.t) =
  match task.Task.run with
  | Some f -> f
  | None -> invalid_arg ("Real_exec: task without closure: " ^ task.Task.name)

(* Task bodies come in two forms: a [run] closure, or a closure-free
   [Task.op] dispatched through the caller's interpreter. With an
   interpreter present the op wins (the DAG may carry closures too, e.g.
   for an oracle comparison); without one, only closures are runnable. The
   dispatch is one branch on an immediate tag — no allocation, nothing for
   the GC to scan in the steal loop. *)
let[@inline] exec_body interp (task : Task.t) =
  match interp with
  | Some f -> (
    match task.Task.op with Some op -> f op | None -> closure_of task ())
  | None -> closure_of task ()

let check_bodies interp (dag : Dag.t) =
  Array.iter
    (fun (t : Task.t) ->
      let ok =
        match (interp, t.Task.op) with
        | Some _, Some _ -> true
        | _ -> Option.is_some t.Task.run
      in
      if not ok then invalid_arg ("Real_exec: task without body: " ^ t.Task.name))
    dag.Dag.tasks

let want_trace = function Some b -> b | None -> Tracer.enabled_by_env ()

(* Every event site is a [match] on the option, so with tracing off the
   executors pay one branch per site and no clock reads — that is the whole
   <2% disabled-overhead budget. *)
let[@inline] event tracer ~domain kind ~arg =
  match tracer with None -> () | Some t -> Tracer.record t ~domain kind ~arg

(* Causal spans: the submitting domain's ambient request context is
   captured once at run entry and re-seated around every task body, so a
   task run on another domain still parents onto the request that
   submitted the DAG. Only active when a collector is installed AND the
   submitter had a context — otherwise the per-task cost is the [None]
   branch. *)
let span_ctx () = match Span.installed () with None -> None | Some _ -> Span.current ()

let[@inline] with_task_span sctx ~wid (task : Task.t) f =
  match sctx with
  | None -> f ()
  | Some ctx ->
    let t0 = Clock.now_ns () in
    let note () =
      match Span.installed () with
      | None -> ()
      | Some col ->
        let c = Span.child ctx in
        Span.record col
          {
            Span.request = c.Span.request;
            span = c.Span.span;
            parent = c.Span.parent;
            phase = "task";
            name = task.Task.name;
            lane = wid;
            attempt = 0;
            start_ns = t0;
            finish_ns = Clock.now_ns ();
          }
    in
    (match f () with
    | v ->
      note ();
      v
    | exception e ->
      note ();
      raise e)

(* Ring capacity per worker for a task-only trace: each task records one
   start and one finish, in the ring of the worker that ran it. *)
let task_tracer ?trace ~workers (dag : Dag.t) =
  let n = Dag.n_tasks dag in
  if want_trace trace && n > 0 then Some (Tracer.create ~domains:workers ~capacity:(2 * n))
  else None

(* Merge per-domain rings into a Trace.t: pair each Task_start with the
   following Task_finish of the same id (task bodies never nest within a
   worker), timestamps rebased to [t0_ns] so the Gantt starts at zero. *)
let trace_of_tracer (dag : Dag.t) ~workers ~t0_ns tracer =
  let tr = Trace.create ~workers in
  for d = 0 to workers - 1 do
    let pending_id = ref (-1) and pending_ns = ref 0 in
    List.iter
      (fun (e : Tracer.event) ->
        match e.Tracer.kind with
        | Tracer.Task_start ->
          pending_id := e.arg;
          pending_ns := e.t_ns
        | Tracer.Task_finish when !pending_id = e.arg ->
          (* clamp to the timed region: a fork-join worker can start its
             first task a hair before worker 0 records t0 *)
          let start = Float.max 0.0 (Clock.ns_to_s (!pending_ns - t0_ns)) in
          let finish = Float.max start (Clock.ns_to_s (e.t_ns - t0_ns)) in
          Trace.add tr
            {
              Trace.task = e.arg;
              name = dag.Dag.tasks.(e.arg).Task.name;
              worker = d;
              start;
              finish;
            };
          pending_id := -1
        | _ -> ())
      (Tracer.events tracer ~domain:d)
  done;
  tr

let run_sequential ?interp ?trace (dag : Dag.t) =
  check_bodies interp dag;
  let n = Dag.n_tasks dag in
  let tracer = task_tracer ?trace ~workers:1 dag in
  let sctx = span_ctx () in
  let t0 = Clock.now_ns () in
  Array.iter
    (fun task ->
      event tracer ~domain:0 Tracer.Task_start ~arg:task.Task.id;
      (match with_task_span sctx ~wid:0 task (fun () -> exec_body interp task) with
      | () -> ()
      | exception e ->
        Metrics.incr m_failures;
        raise
          (Task_failed
             {
               failed_task = task.Task.id;
               failed_name = task.Task.name;
               failed_worker = 0;
               error = e;
             }));
      event tracer ~domain:0 Tracer.Task_finish ~arg:task.Task.id)
    dag.Dag.tasks;
  let elapsed = Clock.ns_to_s (Clock.now_ns () - t0) in
  Metrics.add m_tasks n;
  {
    elapsed;
    tasks = n;
    workers = 1;
    steals = 0;
    steal_attempts = 0;
    parks = 0;
    park_time = 0.0;
    trace = Option.map (trace_of_tracer dag ~workers:1 ~t0_ns:t0) tracer;
  }

(* Sense-reversing barrier for the fork-join pool. Its cost *is* the
   phenomenon run_forkjoin measures, so a plain mutex + condvar is the
   honest implementation of the classical BSP barrier. *)
type barrier = {
  bar_mutex : Mutex.t;
  bar_cond : Condition.t;
  mutable bar_count : int;
  mutable bar_sense : bool;
  bar_parties : int;
}

let barrier_make parties =
  {
    bar_mutex = Mutex.create ();
    bar_cond = Condition.create ();
    bar_count = 0;
    bar_sense = false;
    bar_parties = parties;
  }

let barrier_wait b =
  Mutex.lock b.bar_mutex;
  let my_sense = not b.bar_sense in
  b.bar_count <- b.bar_count + 1;
  if b.bar_count = b.bar_parties then begin
    b.bar_count <- 0;
    b.bar_sense <- my_sense;
    Condition.broadcast b.bar_cond
  end
  else
    while b.bar_sense <> my_sense do
      Condition.wait b.bar_cond b.bar_mutex
    done;
  Mutex.unlock b.bar_mutex

let run_forkjoin ?interp ?trace ~workers (dag : Dag.t) =
  if workers < 1 then invalid_arg "Real_exec.run_forkjoin: workers < 1";
  check_bodies interp dag;
  let n = Dag.n_tasks dag in
  let levels = Array.map Array.of_list dag.Dag.levels in
  let nlevels = Array.length levels in
  let tracer =
    if want_trace trace && n > 0 then
      Some (Tracer.create ~domains:workers ~capacity:((2 * n) + (4 * nlevels) + 1024))
    else None
  in
  (* One fixed pool of domains, one barrier per level: the BSP-vs-DAG gap
     then measures barrier idle time, not repeated domain spawn cost. *)
  let barrier = barrier_make workers in
  let barrier_ns = Array.make workers 0 in
  (* On a task-body exception the failing worker records the failure and
     raises the [aborted] flag, but every worker — including the failing
     one — keeps attending every remaining level barrier (skipping the
     task bodies): peers are never left waiting on a barrier that will
     not fill, and the joins below always complete. *)
  let aborted = Atomic.make false in
  let failure = Atomic.make None in
  let sctx = span_ctx () in
  let worker w =
    for l = 0 to nlevels - 1 do
      let tasks = levels.(l) in
      let ntasks = Array.length tasks in
      let lo = w * ntasks / workers and hi = (w + 1) * ntasks / workers in
      for i = lo to hi - 1 do
        let id = tasks.(i) in
        if not (Atomic.get aborted) then begin
          event tracer ~domain:w Tracer.Task_start ~arg:id;
          (match
             with_task_span sctx ~wid:w dag.Dag.tasks.(id) (fun () ->
                 exec_body interp dag.Dag.tasks.(id))
           with
          | () -> ()
          | exception e ->
            let f =
              {
                failed_task = id;
                failed_name = dag.Dag.tasks.(id).Task.name;
                failed_worker = w;
                error = e;
              }
            in
            ignore (Atomic.compare_and_set failure None (Some f));
            Metrics.incr m_failures;
            Atomic.set aborted true);
          event tracer ~domain:w Tracer.Task_finish ~arg:id
        end
      done;
      (* the wait below *is* the BSP idle time the trace should show *)
      event tracer ~domain:w Tracer.Barrier_enter ~arg:l;
      let t0 = Clock.now_ns () in
      barrier_wait barrier;
      barrier_ns.(w) <- barrier_ns.(w) + (Clock.now_ns () - t0);
      event tracer ~domain:w Tracer.Barrier_exit ~arg:l
    done
  in
  let domains =
    List.init (workers - 1) (fun w ->
        Domain.spawn (fun () ->
            Span.set_current sctx;
            (* start barrier: the timed region excludes the one-off spawns *)
            barrier_wait barrier;
            worker (w + 1)))
  in
  barrier_wait barrier;
  let t0 = Clock.now_ns () in
  worker 0;
  (* worker 0 passed the final barrier, so every task has completed *)
  let elapsed = Clock.ns_to_s (Clock.now_ns () - t0) in
  List.iter Domain.join domains;
  (match Atomic.get failure with Some f -> raise (Task_failed f) | None -> ());
  let total_barrier_ns = Array.fold_left ( + ) 0 barrier_ns in
  Metrics.add m_tasks n;
  Metrics.add m_barrier_ns total_barrier_ns;
  {
    elapsed;
    tasks = n;
    workers;
    steals = 0;
    steal_attempts = 0;
    parks = 0;
    park_time = Clock.ns_to_s total_barrier_ns;
    trace = Option.map (trace_of_tracer dag ~workers ~t0_ns:t0) tracer;
  }


let default_workers () = min 8 (Domain.recommended_domain_count ())
