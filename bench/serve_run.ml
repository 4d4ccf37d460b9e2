(* Serving-layer benchmark (`bench/main.exe --serve FILE`) and the serve
   record for `--json` / `--smoke`.

   Three parts, every one seeded and reproducible:

   - offered-load points: a nominal open-loop Poisson run the pool keeps up
     with, and a pre-generated burst (Loadgen.run_burst) far beyond the
     admission window, where backpressure must engage — reject rate > 0 is
     part of the record's self-check, not just a reported number.
   - a transient fault storm: every injected fault retried to success,
     zero failures, every solution bitwise-identical to Route.direct on
     the same seeded instance.
   - a permanent fault storm: the injected set (predicted exactly by
     Harness.targets_key, since request ids are submission-ordered) fails
     typed with retries exhausted; everything else lands bitwise-correct.

   Every part also self-checks the new observability plumbing: the counter
   reconciliation invariant (admitted = completed + failed, offered =
   admitted + rejected, nothing left in flight), the causal span tree
   (every completion has exactly one root span and one attempt span per
   execution — retries and EDF/batcher reordering included — with zero
   collector drops), and per-class SLO burn rates (the permanent storm
   must breach, the clean parts must not). The permanent storm arms the
   flight recorder and round-trips the dump through Flight.read, checking
   the CRC and that a failed request's full span chain survived.
   `run ~file` exits non-zero if any self-check fails, so the CI smoke
   step gates on unexplained failures for free. *)

module Server = Xsc_serve.Server
module Loadgen = Xsc_serve.Loadgen
module Request = Xsc_serve.Request
module Slo = Xsc_serve.Slo
module Harness = Xsc_resilience.Harness
module Flight = Xsc_resilience.Flight
module Span = Xsc_obs.Span
module Metrics = Xsc_obs.Metrics

let reconciles srv ~offered =
  let c = Server.counters srv in
  Server.in_flight srv = 0
  && c.Server.admitted = c.Server.completed + c.Server.failed
  && offered = c.Server.admitted + c.Server.rejected

(* Per-part metrics figures via the snapshot/delta helper — one call
   around each part replaces the ad-hoc before/after counter reads. *)
let metrics_delta_json before =
  let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
  let counter name =
    match List.assoc_opt name d with Some (Metrics.Counter n) -> n | _ -> 0
  in
  let alloc =
    match List.assoc_opt "serve.alloc_minor_words_per_req" d with
    | Some (Metrics.Histogram h) when h.Metrics.count > 0 ->
      h.Metrics.sum /. float_of_int h.Metrics.count
    | _ -> 0.0
  in
  Printf.sprintf
    "{\"completed\": %d, \"retried\": %d, \"batches\": %d, \
     \"trace_dropped\": %d, \"span_dropped\": %d, \
     \"alloc_minor_words_per_req\": %.1f}"
    (counter "serve.completed") (counter "serve.retried")
    (counter "serve.batches")
    (counter "obs.trace.dropped")
    (counter "obs.span.dropped")
    alloc

let slo_json srv =
  match Server.slo_report_json srv with Some j -> j | None -> "null"

(* Completion-independent span invariant (load points hand back aggregate
   reports, not completions): every resolved request left exactly one root
   span, and the bounded collector shed nothing. *)
let span_roots_ok srv =
  let c = Server.counters srv in
  let roots =
    List.length
      (List.filter (fun s -> s.Span.phase = "request") (Server.span_records srv))
  in
  Server.span_dropped srv = 0 && roots = c.Server.completed + c.Server.failed

(* Per-completion span invariant for the storms, where we hold every
   completion: request id [i] owns exactly one root and one wait span, and
   exactly one attempt span per execution with attempt numbers 0..k-1 —
   i.e. the id survived batcher coalescing, EDF reordering and transient
   re-execution, and each attempt appears exactly once. *)
let span_chains_ok srv completions =
  let by_key = Hashtbl.create 512 in
  List.iter
    (fun s -> Hashtbl.add by_key (s.Span.request, s.Span.phase) s)
    (Server.span_records srv);
  let chain_ok i (c : Request.completion) =
    let executions =
      match c.Request.outcome with
      | Error (Request.Failed { attempts; _ }) -> attempts
      | _ -> c.Request.retries + 1
    in
    let atts = Hashtbl.find_all by_key (i, "attempt") in
    let attempt_nos =
      List.sort_uniq compare (List.map (fun s -> s.Span.attempt) atts)
    in
    List.length (Hashtbl.find_all by_key (i, "request")) = 1
    && List.length (Hashtbl.find_all by_key (i, "wait")) = 1
    && List.length atts = executions
    && attempt_nos = List.init executions Fun.id
  in
  Server.span_dropped srv = 0
  && Array.for_all Fun.id (Array.mapi chain_ok completions)

(* ---- offered-load points ---- *)

type point = { label : string; burst : bool; server : Server.config; load : Loadgen.config }

(* One catch-all SLO on the clean points: target = the load's deadline, a
   10% budget. Both points must finish with the monitor unbreached (the
   overload point sheds by typed reject, which is not an SLO violation —
   rejected requests are never admitted, so never observed). *)
let point_slos deadline_s =
  [ { Slo.kind = "*"; latency_s = deadline_s; error_budget = 0.1 } ]

let nominal ~count =
  let load = { Loadgen.default with seed = 42; rate_hz = 300.0; count; n = 48 } in
  {
    label = "nominal";
    burst = false;
    server =
      { Server.default_config with
        capacity = 64;
        slos = point_slos load.Loadgen.deadline_s;
      };
    load;
  }

(* An instantaneous burst of [count] against an 8-slot admission window
   (on the default pool lanes): offered >> capacity by construction, so
   rejects are guaranteed on any host — the demonstrably-engaged
   backpressure point. *)
let overload ~count =
  let load =
    { Loadgen.default with seed = 43; rate_hz = 1.0e6; count; n = 48; deadline_s = 1.0 }
  in
  {
    label = "overload";
    burst = true;
    server =
      { Server.default_config with
        capacity = 8;
        max_batch = 4;
        slos = point_slos load.Loadgen.deadline_s;
      };
    load;
  }

let run_point p =
  let before = Metrics.snapshot () in
  let srv = Server.start p.server in
  let r = (if p.burst then Loadgen.run_burst else Loadgen.run_open) srv p.load in
  Server.stop srv;
  let recon = reconciles srv ~offered:p.load.Loadgen.count in
  let spans_ok = span_roots_ok srv in
  let ok =
    recon && spans_ok && r.Loadgen.failed = 0
    && (not (Server.slo_breached srv))
    && (not p.burst || r.Loadgen.reject_rate > 0.0)
  in
  let json =
    Printf.sprintf
      "{\"label\": \"%s\", \"lanes\": %d, \"capacity\": %d, \"max_batch\": %d, \
       \"n\": %d, \"burst\": %b, \"report\": %s, \"counters_reconcile\": %b, \
       \"spans_ok\": %b, \"slo\": %s, \"metrics\": %s}"
      p.label p.server.Server.lanes p.server.Server.capacity p.server.Server.max_batch
      p.load.Loadgen.n p.burst (Loadgen.report_json r) recon spans_ok (slo_json srv)
      (metrics_delta_json before)
  in
  (json, ok, r, srv)

(* ---- fault storms ---- *)

let storm_load ~count =
  { Loadgen.default with seed = 31; count; rate_hz = 5000.0; n = 10; deadline_s = 5.0 }

(* Round-trip the permanent storm's flight dump: the file must CRC-verify
   through the typed loader, and the failing request's whole span chain —
   root, every exhausted attempt, and the injected-fault markers recorded
   under the attempts' ambient context — must be among the survivors. *)
let flight_ok ~path ~max_retries completions =
  let fail_id =
    Array.to_list completions
    |> List.mapi (fun i c -> (i, c))
    |> List.find_map (fun (i, c) ->
           match c.Request.outcome with
           | Error (Request.Failed _) -> Some i
           | _ -> None)
  in
  match (fail_id, Flight.read path) with
  | None, _ | _, Error _ -> false
  | Some id, Ok d ->
    let mine =
      Array.to_list d.Flight.entries
      |> List.filter (fun (e : Flight.entry) -> e.Flight.request = id)
    in
    let count phase =
      List.length (List.filter (fun (e : Flight.entry) -> e.Flight.phase = phase) mine)
    in
    count "request" = 1
    && count "attempt" = max_retries + 1
    && count "inject" = max_retries + 1

(* Submit the whole seeded schedule, await every ticket, and check each
   completion against Route.direct on the same instance. Request
   ids are assigned in submission order (0..count-1), so the harness's
   per-key decision predicts exactly which requests were injected. *)
let run_storm ~transient ~count ?flight_path () =
  let before = Metrics.snapshot () in
  let cfg = storm_load ~count in
  let h = Harness.create { Harness.default with seed = 9; p_raise = 0.25; transient } in
  let max_retries = if transient then 4 else 2 in
  (* A tight 1% error budget: the clean transient storm must never breach
     it; the permanent storm must (its typed failures are violations),
     tripping the breach-edge flight dump on the way. *)
  let slos = [ { Slo.kind = "*"; latency_s = cfg.Loadgen.deadline_s; error_budget = 0.01 } ] in
  (match flight_path with
  | Some _ ->
    Flight.clear ();
    Flight.reset_dump_guard ()
  | None -> ());
  let srv =
    Server.start ~harness:h
      { Server.default_config with
        capacity = 2 * count;
        max_retries;
        slos;
        flight_path;
      }
  in
  let arrivals = Loadgen.schedule cfg in
  let tickets =
    Array.map
      (fun a ->
        match Server.submit srv ~deadline_s:cfg.Loadgen.deadline_s (Loadgen.payload_of cfg a) with
        | Ok tk -> tk
        | Error e -> failwith ("storm submit rejected: " ^ Request.error_message e))
      arrivals
  in
  let completions = Array.map (Server.await srv) tickets in
  Server.stop srv;
  let injected_requests = ref 0
  and typed_failures = ref 0
  and wrong = ref 0
  and completed = ref 0
  and retried = ref 0 in
  Array.iteri
    (fun i c ->
      retried := !retried + c.Request.retries;
      let should_fail = (not transient) && Harness.targets_key h i in
      if should_fail then incr injected_requests;
      match c.Request.outcome with
      | Ok sol ->
        incr completed;
        if should_fail
           || not (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed cfg arrivals.(i)))
        then incr wrong
      | Error (Request.Failed { attempts; _ }) ->
        incr typed_failures;
        if (not should_fail) || attempts <> max_retries + 1 then incr wrong
      | Error _ -> incr wrong)
    completions;
  let recon = reconciles srv ~offered:count in
  let spans_ok = span_chains_ok srv completions in
  let slo_ok = Server.slo_breached srv = not transient in
  let fl_ok =
    match flight_path with
    | None -> true
    | Some path -> flight_ok ~path ~max_retries completions
  in
  let ok =
    recon && spans_ok && slo_ok && fl_ok && !wrong = 0 && Harness.raised h > 0
    && (if transient then !typed_failures = 0 && !retried = Harness.raised h
        else !injected_requests > 0 && !typed_failures = !injected_requests)
  in
  let json =
    Printf.sprintf
      "{\"mode\": \"%s\", \"count\": %d, \"p_raise\": 0.25, \"seed\": 9, \
       \"max_retries\": %d, \"injected_raises\": %d, \"injected_requests\": %d, \
       \"completed\": %d, \"typed_failures\": %d, \"retried\": %d, \
       \"mismatches\": %d, \"counters_reconcile\": %b, \"spans_ok\": %b, \
       \"slo_breached_as_expected\": %b, \"flight_roundtrip_ok\": %b, \
       \"slo\": %s, \"metrics\": %s}"
      (if transient then "transient" else "permanent")
      count max_retries (Harness.raised h) !injected_requests !completed !typed_failures
      !retried !wrong recon spans_ok slo_ok fl_ok (slo_json srv)
      (metrics_delta_json before)
  in
  (json, ok)

(* ---- the record ---- *)

let default_flight_file =
  Filename.concat (Filename.get_temp_dir_name ()) "xsc_serve_flight.bin"

let record ?(nominal_count = 150) ?(burst_count = 240) ?(storm_count = 80)
    ?(flight_file = default_flight_file) ?span_trace_file () =
  let pts = [ nominal ~count:nominal_count; overload ~count:burst_count ] in
  let loads = List.map run_point pts in
  (* Per-request span lanes of the nominal point, exported as a standalone
     Chrome trace (pid 1, one tid per request, retries inlined). *)
  (match (span_trace_file, loads) with
  | Some path, (_, _, _, srv) :: _ ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Server.span_chrome_json srv))
  | _ -> ());
  let st_json, st_ok = run_storm ~transient:true ~count:storm_count () in
  let sp_json, sp_ok =
    run_storm ~transient:false ~count:storm_count ~flight_path:flight_file ()
  in
  let ok = List.for_all (fun (_, ok, _, _) -> ok) loads && st_ok && sp_ok in
  let json =
    Printf.sprintf
      "{\"loads\": [%s],\n\
      \    \"storm_transient\": %s,\n\
      \    \"storm_permanent\": %s,\n\
      \    \"flight_file\": \"%s\",\n\
      \    \"checks_passed\": %b}"
      (String.concat ",\n    " (List.map (fun (j, _, _, _) -> j) loads))
      st_json sp_json (String.escaped flight_file) ok
  in
  (json, ok, List.map (fun (_, _, r, _) -> r) loads)

let run ~file =
  let base = Filename.remove_extension file in
  let flight_file = base ^ "_flight.bin" in
  let span_trace_file = base ^ "_trace.json" in
  let json, ok, reports = record ~flight_file ~span_trace_file () in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc ("{\n  \"serve\": " ^ json ^ "\n}\n"));
  Printf.printf "wrote %s (span lanes: %s, flight dump: %s)\n" file span_trace_file
    flight_file;
  List.iter2
    (fun label r -> Printf.printf "-- %s --\n%s\n" label (Loadgen.report_human r))
    [ "nominal (open loop, 300 req/s)"; "overload (burst vs 8-slot window)" ]
    reports;
  if not ok then begin
    (* Gate failing: dump whatever the flight ring still holds next to the
       record so the post-mortem ships with the red CI run. *)
    ignore (Flight.dump ~path:(base ^ "_gate_flight.bin") ~reason:"bench-serve-gate-failure");
    Printf.eprintf "serve record self-checks FAILED (see %s)\n" file;
    exit 1
  end;
  print_endline "serve record self-checks passed"
