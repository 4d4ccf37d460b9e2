(* Tests of the benchmark's own helpers: the percentile sample-count
   rule, schedule determinism by seed, and the result line's format. *)

open Perfbench
module Json = Xsc_util.Json

let test_sample_rule () =
  let q = Alcotest.(option (float 0.0)) in
  Alcotest.check q "10000 -> p99.9" (Some 99.9) (Pct.tail_q 10000);
  Alcotest.check q "9999 -> p99" (Some 99.0) (Pct.tail_q 9999);
  Alcotest.check q "1000 -> p99" (Some 99.0) (Pct.tail_q 1000);
  Alcotest.check q "999 -> p90" (Some 90.0) (Pct.tail_q 999);
  Alcotest.check q "100 -> p90" (Some 90.0) (Pct.tail_q 100);
  Alcotest.check q "99 -> p50" (Some 50.0) (Pct.tail_q 99);
  Alcotest.check q "20 -> p50" (Some 50.0) (Pct.tail_q 20);
  Alcotest.check q "19 -> none" None (Pct.tail_q 19)

let test_summary () =
  let xs = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  let s = Pct.summarize xs in
  Alcotest.(check int) "sample count" 1000 s.Pct.samples;
  Alcotest.(check (float 1e-9)) "p50" 499.5 (Pct.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "tail is p99" 99.0 s.Pct.tail_q;
  Alcotest.(check (float 1e-9)) "p99" 989.01 s.Pct.tail;
  Alcotest.(check (float 0.0)) "input untouched" 999.0 xs.(0);
  let few = Pct.summarize [| 1.0; 2.0 |] in
  Alcotest.(check bool) "no tail below 20 samples" true (Float.is_nan few.Pct.tail)

let test_schedule_determinism () =
  let sched seed = Pace.open_loop ~seed ~seconds:3.0 ~rate_hz:200.0 ~pool:16 in
  let a = sched 5 in
  Alcotest.(check bool) "same seed, same schedule" true (a = sched 5);
  Alcotest.(check bool) "another seed, another schedule" false (a = sched 6);
  let ordered = ref true in
  Array.iteri (fun i x -> if i > 0 && x.Pace.due_s < a.(i - 1).Pace.due_s then ordered := false) a;
  Alcotest.(check bool) "in time order" true !ordered;
  Alcotest.(check bool) "inside the window" true
    (Array.for_all (fun x -> x.Pace.due_s >= 0.0 && x.Pace.due_s < 3.0) a);
  Alcotest.(check bool) "slots inside the pool" true (Array.for_all (fun x -> x.Pace.slot < 16) a);
  Alcotest.(check bool) "about 600 arrivals at 200/s" true (abs (Array.length a - 600) < 120)

let test_record_parses () =
  let line =
    Record.line ~correct:true ~attempted:1200 ~failed:3
      [ Record.metric "small_p50_ms" "ms" 2.6180339887498949; Record.metric "setup_s" "s" 0.004 ]
  in
  let j = Json.parse line in
  let num path =
    List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some j) path
  in
  Alcotest.(check bool) "correct" true (num [ "correct" ] = Some (Json.Bool true));
  Alcotest.(check bool) "attempted" true (num [ "attempted" ] = Some (Json.Num 1200.0));
  Alcotest.(check bool) "failed" true (num [ "failed" ] = Some (Json.Num 3.0));
  Alcotest.(check bool) "value keeps every digit" true
    (num [ "metrics"; "small_p50_ms"; "value" ] = Some (Json.Num 2.6180339887498949));
  Alcotest.(check bool) "unit" true (num [ "metrics"; "setup_s"; "unit" ] = Some (Json.Str "s"));
  Alcotest.check_raises "no NaN in the record" (Invalid_argument "Record.number: not finite")
    (fun () -> ignore (Record.line ~correct:true ~attempted:1 ~failed:0 [ Record.metric "x" "ms" nan ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "sample-count rule" `Quick test_sample_rule;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ("pace", [ Alcotest.test_case "schedule determinism" `Quick test_schedule_determinism ]);
      ("record", [ Alcotest.test_case "result line parses" `Quick test_record_parses ]);
    ]
