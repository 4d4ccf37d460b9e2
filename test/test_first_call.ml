(* First calls racing from two domains. Crc32's table and the
   process-wide counters behind Blas's flop tallies and Span's drop count
   must already exist when two domains reach them together: a value built
   lazily on first use raises CamlinternalLazy.Undefined in the domain
   that forces it while another is still forcing it. Only the first use
   in a process can race, so the test re-runs itself as fresh child
   processes; in each child the first action is two domains, released
   together from a spin barrier, making the process's first Crc32 call,
   its first Blas.gemm call and its first Span drop. *)

module Blas = Xsc_linalg.Blas
module Mat = Xsc_linalg.Mat
module Span = Xsc_obs.Span

let children = 16
let child_flag = "--race-child"

let first_calls () =
  ignore (Xsc_util.Crc32.string "race");
  let a = Mat.identity 4 in
  Blas.gemm ~alpha:1.0 a a ~beta:0.0 (Mat.create 4 4);
  (* a one-record collector drops the second record *)
  let col = Span.collector ~capacity:1 () in
  let r =
    { Span.request = 0; span = 0; parent = -1; phase = "race"; name = "race"; lane = 0;
      attempt = 0; start_ns = 0; finish_ns = 0 }
  in
  Span.record col r;
  Span.record col r

(* Exits 0 when both domains got through their first calls, 1 otherwise. *)
let child () =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let racer () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    match first_calls () with
    | () -> true
    | exception e ->
      prerr_endline ("first call raised: " ^ Printexc.to_string e);
      false
  in
  let domains = List.init 2 (fun _ -> Domain.spawn racer) in
  while Atomic.get ready < 2 do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let oks = List.map Domain.join domains in
  exit (if List.for_all Fun.id oks then 0 else 1)

let test_first_calls_race () =
  let exe = Sys.executable_name in
  let failed = ref 0 in
  for _ = 1 to children do
    let pid = Unix.create_process exe [| exe; child_flag |] Unix.stdin Unix.stdout Unix.stderr in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | _ -> incr failed
  done;
  Alcotest.(check int) (Printf.sprintf "children whose racing first calls raised (of %d)" children) 0
    !failed

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = child_flag then child ()
  else
    Alcotest.run "first_call"
      [
        ( "first call",
          [ Alcotest.test_case "two domains race the first gemm and span drop" `Quick
              test_first_calls_race ] );
      ]
