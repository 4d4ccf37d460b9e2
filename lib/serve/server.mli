(** The concurrent solver service.

    Pipeline: admission control -> bounded ingress {!Queue} -> dynamic
    {!Batcher} -> earliest-deadline-first {!Scheduler} -> one shared
    deadline-aware task pool ({!Xsc_runtime.Pool}) on [lanes] persistent
    worker domains. Requests beyond the admission window are rejected with
    a typed error at submit (backpressure); admitted requests always
    resolve to a typed {!Request.completion}.

    Every request's tiled DAG ({!Route}) is submitted into the pool: no
    per-request executor or barrier, and the request's EDF deadline
    reaches {e task} granularity (composite {!Xsc_runtime.Prio} key), so a
    small request entering while a large factorization streams preempts at
    the next task boundary — its wait is bounded by ~one task's service
    time, not the large DAG's tail. The server does not linger: each batch
    member is its own pool job and the pool already orders tasks by
    deadline, so waiting for batch company would only add delay. One
    event-driven pump domain dispatches whatever has arrived as soon as it
    is woken, and blocks (no polling, no CPU) while there is nothing to
    do.

    The window counts actual in-flight work (see {!occupancy}) — requests
    travelling towards the pool or live in it — so a retry asleep in
    backoff frees its slot and in-system memory is bounded by [capacity]
    plus the transient backoff population.

    {2 Fault isolation}

    Batch members execute as independent pool jobs: one singular matrix or
    one injected fault aborts exactly that request's job — never its
    batch, never the server. Transient injected faults
    ({!Xsc_resilience.Harness.Injected} under a [transient] policy) are
    retried with exponential backoff up to [max_retries] (the pump holds
    them; no pool lane ever sleeps); deterministic kernel failures fail
    fast.

    {2 Observability}

    Counters [serve.admitted\]/[rejected]/[completed]/[failed]/[retried]/
    [batches] and log2 histograms [serve.queue_wait_s]/[service_s]/
    [total_s]/[batch_size]/[alloc_minor_words_per_req] feed the
    {!Xsc_obs.Metrics} registry.

    With [spans] on (the default), the server keeps a causal
    {!Xsc_obs.Span} tree per request in a bounded collector: a root span
    minted at admission, wait and per-attempt child spans, plus whatever
    executor tasks, injected faults and ABFT replays run under the
    attempt's ambient context (task spans parent onto the submitting
    request even when many requests interleave on one lane). {!trace}
    renders the wait and attempt spans as a {!Xsc_runtime.Trace.t} (one
    lane per pool worker plus a queue lane), so a served run drops into
    the existing Chrome-trace pipeline. {!span_chrome_json} renders one
    contiguous lane per request (pid 1) with flow-event parent arrows —
    retries included. [slos] attaches per-class burn-rate monitors
    ({!Slo}); [flight_path] arms the crash {!Xsc_resilience.Flight}
    recorder, dumped on the first permanent request failure, on entering
    SLO breach, and at [stop] when any request failed. *)

type config = {
  lanes : int;  (** pool worker domains *)
  capacity : int;  (** admission window: max requests in flight at once *)
  max_batch : int;
      (** batch size bound. Every open batch is dispatched at once, so
          this only bounds how far a batch can overshoot its class cap *)
  default_deadline_s : float;  (** deadline when [submit] passes none *)
  max_retries : int;  (** retry budget for transient injected faults *)
  retry_backoff_s : float;  (** base backoff, doubled per retry *)
  spans : bool;  (** keep causal span records per request *)
  slos : Slo.objective list;  (** per-class burn-rate monitors; [[]] = off *)
  flight_path : string option;  (** arm the flight recorder: dump here *)
  class_caps : (string * int) list;
      (** class-aware dispatch: at most [cap] attempts of kind [kind] (a
          {!Request.kind_name}, e.g. ["cg"]) live in the pool at once. A capped class's batches wait in the
          EDF heap — keeping their place in line — while the class is at
          its cap, so a stream of long bandwidth-bound solves cannot
          occupy every pool lane and destroy compute-bound tail latency.
          Checked at batch granularity (a batch may overshoot its cap by
          its own size minus one). [[]] = uncapped. *)
}

val default_config : config
(** 2 pool lanes, capacity 64, batches of at most 8, 250 ms deadline,
    3 retries from a 0.5 ms base backoff; spans on, no SLOs, no class
    caps, flight recorder unarmed. *)

type t
type ticket

type counters = {
  admitted : int;
  rejected : int;
  completed : int;  (** resolved [Ok] *)
  failed : int;  (** resolved [Error (Failed _)] *)
  retried : int;  (** re-executions after transient injected faults *)
  batches : int;  (** batches dispatched *)
  cap_deferred : int;
      (** class-aware dispatch deferral events: claims where a capped
          class's most-urgent batch was held back (one per pump pass while
          blocked; the pump passes once per wakeup — an admission, a
          retry, a freed cap slot — so a diagnostic rate, not a batch
          count) *)
}

val start : ?harness:Xsc_resilience.Harness.t -> config -> t
(** Spawn the pool and its pump. [harness] injects per-request faults keyed by
    request id ({!Xsc_resilience.Harness.wrap_thunk}) — the seeded
    fault-storm hook. Raises [Invalid_argument] on nonsensical config. *)

val submit :
  t -> ?deadline_s:float -> Request.payload -> (ticket, Request.error) result
(** Admit a request (any domain). [Error (Rejected Queue_full)] when the
    admission window is full — the backpressure signal; the request was
    not queued and will never complete. Raises [Invalid_argument] on
    malformed payloads or non-positive deadlines (caller bugs, not load). *)

val await : t -> ticket -> Request.completion
(** Block until the request resolves. Every admitted request resolves,
    fault storms included. *)

val poll : t -> ticket -> Request.completion option
(** Non-blocking {!await}. *)

val stop : t -> unit
(** Graceful shutdown: stop admitting, flush partial batches, drain
    everything in-system, join the workers. Idempotent. *)

val counters : t -> counters
(** Per-server totals. Quiescent invariant (after [stop], or whenever no
    request is in flight): [admitted = completed + failed], with
    [rejected] counted separately. *)

val in_flight : t -> int
(** Momentary in-system count (admitted, not yet completed). *)

val class_live : t -> string -> int
(** Momentary live-in-pool attempt count of a capped kind (0 for kinds
    without a cap entry). Exposed for tests and the mixed-workload bench. *)

val occupancy : t -> int
(** Momentary admission-window occupancy, the quantity {!submit} compares
    against [capacity]: actual in-flight work — requests from admission
    until their attempt leaves the shared pool, plus retries back in it.
    A slot frees before the request's ticket resolves, so a client
    resubmitting the moment its answer arrives is never refused for it. A
    request waiting out a transient retry backoff holds no pool lane and
    is not counted, so admission keeps flowing while retries sleep. *)

val trace : t -> Xsc_runtime.Trace.t
(** The [wait] and [attempt] records of {!span_records}: one attempt
    entry per execution on the pool lane that ran it ([0..lanes-1]),
    retries included, and one queue-wait entry per completed request on
    lane [lanes]. Empty when [spans] is off; bounded like the collector
    (see {!span_dropped}). Feed to {!Xsc_runtime.Trace.to_chrome_json}. *)

val origin_ns : t -> int
(** Monotonic timestamp taken at [start]; span export rebases on it. *)

val span_records : t -> Xsc_obs.Span.record list
(** Causal span records of every completed request, in record order
    ([[]] when [spans] is off). *)

val span_dropped : t -> int
(** Span records shed by the bounded collector (0 = complete). *)

val span_chrome_events : t -> string list
(** {!Xsc_obs.Span.chrome_events} over {!span_records} — merge into a
    worker trace via {!Xsc_runtime.Trace.to_chrome_json_with}. *)

val span_chrome_json : t -> string
(** Standalone Chrome trace of the request lanes: one lane (tid) per
    request id on pid 1, retries and nested segments included, parent
    arrows as flow events. *)

val slo_reports : t -> Slo.report list
(** Burn-rate state per monitored class ([[]] when [slos] is empty). *)

val slo_breached : t -> bool

val slo_report_json : t -> string option
(** The [serve.slo] record ({!Slo.report_json}); [None] when [slos] is
    empty. *)
