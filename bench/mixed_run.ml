(* Mixed-workload serving benchmark (`bench/main.exe --serve-mixed FILE`,
   CI-sized via `--serve-mixed --smoke FILE`): HPL-vs-HPCG as a serving
   phenomenon.

   The paper's machine-level contrast — dense factorizations near peak
   flops, sparse iterative solves pinned at a few percent by memory
   bandwidth — reappears inside one server the moment both kinds share an
   execution pool: a sparse CG chain is a long train of bandwidth-bound
   chunks, and when those chunks occupy every pool lane, a compute-bound
   dense request arriving with a much tighter deadline waits out chunk
   residuals on every lane. Three points, identical seeded loads:

     dense-alone  the dense stream only — baseline dense p99
     naive        dense + sparse CG streams, no class caps: sparse chunks
                  freely occupy both lanes
     capped       same mix, class_caps [("cg", 1)]: at most one sparse
                  chain lives in the pool at once, so one lane always
                  turns over dense work

   Self-check gates (exit 1 from `run` when any fails):
     (a) every completed sparse request bitwise-identical to the
         sequential sparse oracle (Route.direct — the chunked chain is the
         stepper driven to completion), and dense completions bitwise
         against theirs; no typed failures at any fault-free point
     (b) the naive mix degrades dense p99 by a measured factor:
         naive >= degrade_floor x alone (the phenomenon exists)
     (c) class-aware dispatch recovers it: capped dense p99 <=
         bound_multiple x alone while sparse goodput stays > 0 (the cap
         must not starve the sparse class)
     (d) accounting: per class, offered = admitted + rejected and
         admitted = completed + failed; server totals equal the
         class-wise sums; nothing left in flight
     (e) the fleet simulator accepts the sparse class: a storm over
         Scenario.mixed_classes reconciles its recovery-lattice counters,
         serves the cg class, and replays bit-identically by seed. *)

module Server = Xsc_serve.Server
module Loadgen = Xsc_serve.Loadgen
module Request = Xsc_serve.Request
module Sim = Xsc_fleet.Sim
module Scenario = Xsc_fleet.Scenario

let lanes = 2

(* Gate thresholds. The naive mix must inflate dense p99 by at least
   [degrade_floor]; observed inflation on the CI container sits far above
   it (sparse chunks are multi-ms against a sub-ms dense service). The
   capped recovery bound reuses the isolation bench's generous multiple —
   shared-CI jitter, not the mechanism, sets the slack. *)
let degrade_floor = 1.25
let bound_multiple = 8.0

let dense_load ~count =
  { Loadgen.default with seed = 47; rate_hz = 150.0; count; n = 48; deadline_s = 0.25 }

(* Grid 24 -> 13824-row 7-point operator: each CG chunk (32 iterations)
   streams for multiple milliseconds — long against a dense solve, the
   regime where lane occupancy matters. *)
let sparse_load ~count =
  {
    Loadgen.seed = 61;
    rate_hz = 75.0;
    count;
    n = 24;
    kinds = [| Loadgen.Cg |];
    deadline_s = 5.0;
  }

let server_cfg ~caps =
  {
    Server.default_config with
    lanes;
    capacity = 512;
    default_deadline_s = 5.0;
    class_caps = caps;
  }

let class_ok (r : Loadgen.report) =
  r.Loadgen.offered = r.Loadgen.admitted + r.Loadgen.rejected
  && r.Loadgen.admitted = r.Loadgen.completed + r.Loadgen.failed

let bitwise_ok cfg pairs =
  List.for_all
    (fun (a, (c : Request.completion)) ->
      match c.Request.outcome with
      | Ok sol -> Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed cfg a)
      | Error _ -> false)
    pairs

(* ---- the dense-alone baseline ---- *)

let run_alone ~dense_count =
  let cfg = dense_load ~count:dense_count in
  let srv = Server.start (server_cfg ~caps:[]) in
  let r = Loadgen.run_open srv cfg in
  Server.stop srv;
  (* counters read only after [stop]: the quiescent point where the
     admitted = completed + failed identity is guaranteed *)
  let sc = Server.counters srv in
  let in_flight = Server.in_flight srv in
  let ok =
    class_ok r && r.Loadgen.failed = 0 && in_flight = 0
    && sc.Server.admitted = sc.Server.completed + sc.Server.failed
  in
  let json =
    Printf.sprintf "{\"label\": \"dense-alone\", \"dense\": %s, \"checks\": %b}"
      (Loadgen.report_json r) ok
  in
  (r, ok, json)

(* ---- the two mixed points ---- *)

type mixed_point = {
  mp_label : string;
  mp : Loadgen.mixed;
  mp_cap_deferred : int;
  mp_ok : bool;
  mp_json : string;
}

let run_mixed_point ~label ~caps ~dense_count ~sparse_count =
  let dense = dense_load ~count:dense_count in
  let sparse = sparse_load ~count:sparse_count in
  let srv = Server.start (server_cfg ~caps) in
  let m = Loadgen.run_mixed srv ~dense ~sparse in
  Server.stop srv;
  let sc = Server.counters srv in
  let in_flight = Server.in_flight srv in
  let d = m.Loadgen.m_dense and s = m.Loadgen.m_sparse in
  let accounting =
    (* gate (d): per-class arithmetic plus the cross-check that the
       server's totals are exactly the class-wise sums *)
    class_ok d && class_ok s && in_flight = 0
    && sc.Server.admitted = d.Loadgen.admitted + s.Loadgen.admitted
    && sc.Server.rejected = d.Loadgen.rejected + s.Loadgen.rejected
    && sc.Server.completed = d.Loadgen.completed + s.Loadgen.completed
    && sc.Server.failed = d.Loadgen.failed + s.Loadgen.failed
  in
  let bitwise =
    bitwise_ok dense m.Loadgen.m_dense_pairs && bitwise_ok sparse m.Loadgen.m_sparse_pairs
  in
  let ok = accounting && bitwise && d.Loadgen.failed = 0 && s.Loadgen.failed = 0 in
  let json =
    Printf.sprintf
      "{\"label\": \"%s\", \"class_caps\": %s, \"dense\": %s, \"sparse\": %s, \
       \"cap_deferred\": %d, \"bitwise_ok\": %b, \"accounting_ok\": %b}"
      label
      (match caps with
      | [] -> "[]"
      | l ->
        "["
        ^ String.concat ", "
            (List.map (fun (k, c) -> Printf.sprintf "{\"kind\": \"%s\", \"cap\": %d}" k c) l)
        ^ "]")
      (Loadgen.report_json d) (Loadgen.report_json s) sc.Server.cap_deferred bitwise
      accounting
  in
  { mp_label = label; mp = m; mp_cap_deferred = sc.Server.cap_deferred; mp_ok = ok; mp_json = json }

(* ---- gate (e): the fleet simulator accepts the sparse class ---- *)

let run_fleet () =
  let cfg =
    Scenario.config ~classes:Scenario.mixed_classes ~nodes:400 ~node_mtbf:2000.0
      ~rate_hz:0.5 ~count:60 ~seed:13 ()
  in
  let r1 = Sim.run cfg in
  let r2 = Sim.run cfg in
  let sparse_completed =
    Array.fold_left
      (fun acc (rc : Sim.record) ->
        if
          rc.Sim.cls = Scenario.sparse_class.Xsc_fleet.Model.name
          && match rc.Sim.outcome with Sim.Completed _ -> true | _ -> false
        then acc + 1
        else acc)
      0 r1.Sim.records
  in
  let replays = r1.Sim.outcome_hash = r2.Sim.outcome_hash in
  let ok =
    Sim.reconciles r1.Sim.counters && (not r1.Sim.wedged) && sparse_completed > 0 && replays
  in
  let json =
    Printf.sprintf
      "{\"classes\": %d, \"nodes\": 400, \"node_mtbf_s\": 2000, \"offered\": %d, \
       \"sparse_class\": \"%s\", \"sparse_completed\": %d, \"failures_injected\": %d, \
       \"counters_reconcile\": %b, \"replays_bitwise\": %b, \"outcome_hash\": \"%Lx\"}"
      (Array.length Scenario.mixed_classes)
      r1.Sim.counters.Sim.offered Scenario.sparse_class.Xsc_fleet.Model.name
      sparse_completed r1.Sim.counters.Sim.failures_total
      (Sim.reconciles r1.Sim.counters)
      replays r1.Sim.outcome_hash
  in
  (json, ok)

(* ---- the record ---- *)

let record ?(dense_count = 100) ?(sparse_count = 60) () =
  let alone, alone_ok, alone_json = run_alone ~dense_count in
  let naive =
    run_mixed_point ~label:"naive" ~caps:[] ~dense_count ~sparse_count
  in
  let capped =
    run_mixed_point ~label:"capped" ~caps:[ ("cg", 1) ] ~dense_count ~sparse_count
  in
  let p99_alone = alone.Loadgen.p99_ms in
  let p99_naive = naive.mp.Loadgen.m_dense.Loadgen.p99_ms in
  let p99_capped = capped.mp.Loadgen.m_dense.Loadgen.p99_ms in
  let degrade = if p99_alone > 0.0 then p99_naive /. p99_alone else 0.0 in
  let recover = if p99_alone > 0.0 then p99_capped /. p99_alone else 0.0 in
  let gate_b = degrade >= degrade_floor in
  let gate_c =
    p99_capped <= bound_multiple *. p99_alone
    && capped.mp.Loadgen.m_sparse.Loadgen.goodput > 0.0
  in
  let fleet_json, fleet_ok = run_fleet () in
  let ok = alone_ok && naive.mp_ok && capped.mp_ok && gate_b && gate_c && fleet_ok in
  let json =
    Printf.sprintf
      "{\"lanes\": %d, \"dense_n\": %d, \"sparse_grid\": %d,\n\
      \    \"alone\": %s,\n\
      \    \"naive\": %s,\n\
      \    \"capped\": %s,\n\
      \    \"dispatch\": {\"alone_dense_p99_ms\": %.3f, \"naive_dense_p99_ms\": %.3f, \
       \"capped_dense_p99_ms\": %.3f, \"naive_over_alone\": %.3f, \
       \"capped_over_alone\": %.3f, \"degrade_floor\": %.2f, \"bound_multiple\": %.1f, \
       \"naive_degrades\": %b, \"capped_recovers\": %b},\n\
      \    \"fleet\": %s,\n\
      \    \"checks_passed\": %b}"
      lanes (dense_load ~count:1).Loadgen.n (sparse_load ~count:1).Loadgen.n alone_json
      naive.mp_json capped.mp_json p99_alone p99_naive p99_capped degrade recover
      degrade_floor bound_multiple gate_b gate_c fleet_json ok
  in
  (json, ok, (alone, naive, capped))

let print_summary (alone, naive, capped) =
  let p99_alone = alone.Loadgen.p99_ms in
  let dn = naive.mp.Loadgen.m_dense and dc = capped.mp.Loadgen.m_dense in
  let sn = naive.mp.Loadgen.m_sparse and sc = capped.mp.Loadgen.m_sparse in
  Printf.printf "-- dense alone --\n%s\n" (Loadgen.report_human alone);
  Printf.printf "-- naive mix: dense --\n%s\n" (Loadgen.report_human dn);
  Printf.printf "-- naive mix: sparse --\n%s\n" (Loadgen.report_human sn);
  Printf.printf "-- capped mix: dense --\n%s\n" (Loadgen.report_human dc);
  Printf.printf "-- capped mix: sparse (cap_deferred %d) --\n%s\n" capped.mp_cap_deferred
    (Loadgen.report_human sc);
  Printf.printf
    "dense p99: alone %.2f ms | naive mix %.2f ms (%.1fx) | capped mix %.2f ms \
     (%.2fx alone); sparse goodput naive %.0f/s -> capped %.0f/s\n"
    p99_alone dn.Loadgen.p99_ms
    (if p99_alone > 0.0 then dn.Loadgen.p99_ms /. p99_alone else 0.0)
    dc.Loadgen.p99_ms
    (if p99_alone > 0.0 then dc.Loadgen.p99_ms /. p99_alone else 0.0)
    sn.Loadgen.goodput sc.Loadgen.goodput

let write_and_gate ~file ~json ~ok ~points =
  let oc = open_out file in
  output_string oc ("{\n  \"serve_mixed\": " ^ json ^ "\n}\n");
  close_out oc;
  Printf.printf "wrote %s\n" file;
  print_summary points;
  if not ok then begin
    Printf.eprintf "serve-mixed self-checks FAILED (see %s)\n" file;
    exit 1
  end;
  print_endline "serve-mixed self-checks passed"

let run ~file =
  let json, ok, points = record () in
  write_and_gate ~file ~json ~ok ~points

let smoke ~file =
  let json, ok, points = record ~dense_count:60 ~sparse_count:30 () in
  write_and_gate ~file ~json ~ok ~points
