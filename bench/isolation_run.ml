(* Multi-tenant latency-isolation benchmark (`bench/main.exe
   --serve-isolation FILE`) and the serve_isolation record for `--smoke`.

   The experiment behind the shared task pool: a Poisson stream of small
   SPD solves (the latency-sensitive tenant) against one large solve kept
   continuously streaming (the throughput tenant), on ONE pool lane so the
   two tenants genuinely contend. Two points, identical seeded small load:

     alone   small stream only — the baseline p99
     shared  smalls + large through the shared deadline-aware task pool:
             the large's DAG is interleaved at task granularity, so the
             small's EDF key preempts at the next task boundary

   Self-check gates (exit 1 from `run` when any fails):
     - shared small-class p99 <= bound_multiple x alone p99 (the wait is
       bounded by ~one task's service, not the large DAG's tail)
     - every completed small bitwise-identical to its per-request oracle,
       Route.direct on the same instance
     - a transient fault storm through the pool converges: zero typed
       failures, every retried answer still bitwise-identical
     - counters reconcile and the large actually streamed (>= 1 done)
     - scratch A/B: with the domain-local pools on, buffer-reuse hits
       dominate misses (alloc-per-request means recorded either way via
       the serve.alloc_minor_words_per_req histogram) *)

module Server = Xsc_serve.Server
module Loadgen = Xsc_serve.Loadgen
module Request = Xsc_serve.Request
module Scratch = Xsc_serve.Scratch
module Harness = Xsc_resilience.Harness
module Metrics = Xsc_obs.Metrics

(* The shared pool must keep the small class within this multiple of its
   alone-on-the-lane p99 even while the large streams. Task-granularity
   preemption bounds the added wait to ~one tile kernel; the slack on top
   covers shared-CI jitter (observed multiples sit well under half of
   this). *)
let bound_multiple = 8.0

let lanes = 1

let small_load ~count =
  { Loadgen.default with seed = 47; rate_hz = 150.0; count; n = 48; deadline_s = 0.25 }

let large = { Loadgen.default_large with l_n = 512; l_deadline_s = 5.0 }

let server_cfg =
  { Server.default_config with
    lanes;
    capacity = 512;
    default_deadline_s = 5.0;
  }

let reconciles srv =
  let c = Server.counters srv in
  Server.in_flight srv = 0 && c.Server.admitted = c.Server.completed + c.Server.failed

let alloc_mean_of_delta d =
  match List.assoc_opt "serve.alloc_minor_words_per_req" d with
  | Some (Metrics.Histogram h) when h.Metrics.count > 0 ->
    h.Metrics.sum /. float_of_int h.Metrics.count
  | _ -> 0.0

(* ---- the two load points ---- *)

type point = {
  p_label : string;
  p_iso : Loadgen.isolation;
  p_bitwise_ok : bool;
  p_recon : bool;
  p_json : string;
}

let run_point ~label ~with_large load =
  let before = Metrics.snapshot () in
  let srv = Server.start server_cfg in
  let iso =
    Loadgen.run_isolation srv ?large:(if with_large then Some large else None) load
  in
  Server.stop srv;
  let bitwise_ok =
    List.for_all
      (fun (a, (c : Request.completion)) ->
        match c.Request.outcome with
        | Ok sol -> Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed load a)
        | Error _ -> false)
      iso.Loadgen.pairs
  in
  let recon = reconciles srv in
  let alloc =
    alloc_mean_of_delta (Metrics.delta ~before ~after:(Metrics.snapshot ()))
  in
  let json =
    Printf.sprintf
      "{\"label\": \"%s\", \"with_large\": %b, \"report\": %s, \"larges_done\": %d, \"larges_failed\": %d, \
       \"large_mean_s\": %.4f, \"bitwise_ok\": %b, \"counters_reconcile\": %b, \
       \"alloc_minor_words_per_req\": %.1f}"
      label with_large
      (Loadgen.report_json iso.Loadgen.smalls)
      iso.Loadgen.larges_done iso.Loadgen.larges_failed iso.Loadgen.large_mean_s
      bitwise_ok recon alloc
  in
  { p_label = label; p_iso = iso; p_bitwise_ok = bitwise_ok; p_recon = recon; p_json = json }

(* ---- transient fault storm through the shared pool ---- *)

let storm_load ~count =
  {
    Loadgen.seed = 31;
    count;
    rate_hz = 5000.0;
    n = 48;
    kinds = [| Loadgen.Spd; Loadgen.General |];
    deadline_s = 5.0;
  }

let run_storm ~count =
  let cfg = storm_load ~count in
  let h = Harness.create { Harness.default with seed = 9; p_raise = 0.25; transient = true } in
  let srv =
    Server.start ~harness:h
      { server_cfg with capacity = 2 * count; max_retries = 4 }
  in
  let arrivals = Loadgen.schedule cfg in
  let tickets =
    Array.map
      (fun a ->
        match
          Server.submit srv ~deadline_s:cfg.Loadgen.deadline_s (Loadgen.payload_of cfg a)
        with
        | Ok tk -> tk
        | Error e -> failwith ("isolation storm submit rejected: " ^ Request.error_message e))
      arrivals
  in
  let completions = Array.map (Server.await srv) tickets in
  Server.stop srv;
  let wrong = ref 0
  and failures = ref 0
  and retried = ref 0 in
  Array.iteri
    (fun i c ->
      retried := !retried + c.Request.retries;
      match c.Request.outcome with
      | Ok sol ->
        if not (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed cfg arrivals.(i)))
        then incr wrong
      | Error _ -> incr failures)
    completions;
  let recon = reconciles srv in
  let ok =
    recon && !wrong = 0 && !failures = 0 && Harness.raised h > 0
    && !retried = Harness.raised h
  in
  let json =
    Printf.sprintf
      "{\"count\": %d, \"p_raise\": 0.25, \"seed\": 9, \"injected_raises\": %d, \
       \"retried\": %d, \"typed_failures\": %d, \"mismatches\": %d, \
       \"counters_reconcile\": %b, \"converged_bitwise\": %b}"
      count (Harness.raised h) !retried !failures !wrong recon ok
  in
  (json, ok)

(* ---- scratch pool A/B ---- *)

let run_scratch_ab ~count =
  let load = { (small_load ~count) with seed = 53 } in
  let leg enabled =
    Scratch.set_enabled enabled;
    let before = Metrics.snapshot () in
    let h0 = Scratch.hits () and m0 = Scratch.misses () in
    let srv = Server.start server_cfg in
    let r = Loadgen.run_closed srv ~outstanding:4 load in
    Server.stop srv;
    let alloc = alloc_mean_of_delta (Metrics.delta ~before ~after:(Metrics.snapshot ())) in
    (r, Scratch.hits () - h0, Scratch.misses () - m0, alloc)
  in
  let r_off, hits_off, misses_off, alloc_off = leg false in
  let r_on, hits_on, misses_on, alloc_on = leg true in
  Scratch.set_enabled true;
  let ok =
    hits_off = 0 && hits_on > misses_on && r_off.Loadgen.failed = 0
    && r_on.Loadgen.failed = 0
  in
  let json =
    Printf.sprintf
      "{\"count\": %d, \"off\": {\"hits\": %d, \"misses\": %d, \
       \"alloc_minor_words_per_req\": %.1f}, \"on\": {\"hits\": %d, \"misses\": %d, \
       \"alloc_minor_words_per_req\": %.1f}, \"reuse_ok\": %b}"
      count hits_off misses_off alloc_off hits_on misses_on alloc_on ok
  in
  (json, ok)

(* ---- the record ---- *)

let record ?(small_count = 100) ?(storm_count = 60) ?(ab_count = 60) () =
  let load = small_load ~count:small_count in
  let alone = run_point ~label:"alone" ~with_large:false load in
  let shared = run_point ~label:"shared" ~with_large:true load in
  let p99 p = p.p_iso.Loadgen.smalls.Loadgen.p99_ms in
  let within_bound = p99 shared <= bound_multiple *. p99 alone in
  let large_streamed = shared.p_iso.Loadgen.larges_done >= 1 in
  let points_ok =
    List.for_all
      (fun p -> p.p_bitwise_ok && p.p_recon && p.p_iso.Loadgen.smalls.Loadgen.failed = 0)
      [ alone; shared ]
  in
  let storm_json, storm_ok = run_storm ~count:storm_count in
  let ab_json, ab_ok = run_scratch_ab ~count:ab_count in
  let ok = within_bound && large_streamed && points_ok && storm_ok && ab_ok in
  let json =
    Printf.sprintf
      "{\"lanes\": %d, \"small_n\": %d, \"small_rate_hz\": %.0f, \"large_n\": %d,\n\
      \    \"alone\": %s,\n\
      \    \"shared\": %s,\n\
      \    \"isolation\": {\"alone_p99_ms\": %.3f, \"shared_p99_ms\": %.3f, \
       \"shared_over_alone\": %.3f, \"bound_multiple\": %.1f, \"within_bound\": %b},\n\
      \    \"storm\": %s,\n\
      \    \"scratch_ab\": %s,\n\
      \    \"checks_passed\": %b}"
      lanes load.Loadgen.n load.Loadgen.rate_hz large.Loadgen.l_n alone.p_json
      shared.p_json (p99 alone) (p99 shared)
      (p99 shared /. p99 alone)
      bound_multiple within_bound storm_json ab_json ok
  in
  (json, ok, [ alone; shared ])

let run ~file =
  let json, ok, points = record () in
  let oc = open_out file in
  output_string oc ("{\n  \"serve_isolation\": " ^ json ^ "\n}\n");
  close_out oc;
  Printf.printf "wrote %s\n" file;
  List.iter
    (fun p ->
      Printf.printf "-- %s (large: %d done, mean %.1f ms) --\n%s\n" p.p_label
        p.p_iso.Loadgen.larges_done
        (1e3 *. p.p_iso.Loadgen.large_mean_s)
        (Loadgen.report_human p.p_iso.Loadgen.smalls))
    points;
  (match points with
  | [ alone; shared ] ->
    let p99 p = p.p_iso.Loadgen.smalls.Loadgen.p99_ms in
    Printf.printf "small-class p99: alone %.2f ms | shared+large %.2f ms (%.2fx alone)\n"
      (p99 alone) (p99 shared)
      (p99 shared /. p99 alone)
  | _ -> ());
  if not ok then begin
    Printf.eprintf "serve-isolation self-checks FAILED (see %s)\n" file;
    exit 1
  end;
  print_endline "serve-isolation self-checks passed"
