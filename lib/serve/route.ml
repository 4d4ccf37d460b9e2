(* Request -> dataflow plan: the bridge between the serving layer and the
   shared task pool.

   A plan is the request's whole execution as data: a DAG whose first task
   packs the operand into a pooled tile-major buffer (acquired on the
   executing worker's domain, so scratch recycles inside the pool), the
   factorization as closure-free op tasks over that buffer, an interpreter
   binding the ops to the buffer, and a [finish]/[cleanup] pair run after
   the DAG drains. SPD solves route to the packed tiled Cholesky,
   diagonally dominant LU solves to the packed unpivoted LU; pivoting LU
   and GEMM (no op encoding) run as single-task closure DAGs — still
   pool-scheduled, deadline-tagged units, just without intra-request
   parallelism.

   Bitwise determinism is the contract that makes the shared pool
   testable: the packed kernels update each element along a fixed
   k-ascending chain, so any DAG-consistent interleaving — the pool under
   load, work stealing, preemption by urgent arrivals — produces results
   bitwise identical to [direct], the same plan executed sequentially on
   the calling domain. The isolation bench and the oracle tests lean on
   exactly this.

   Fault injection: with a harness, op-task plans wrap their interpreter
   in [Harness.wrap_interp_key] (first op of the attempt raises when the
   request id is targeted) and closure plans wrap the closure in
   [Harness.wrap_thunk] — same hash, same fired-set, so a seeded storm
   injects the same request set on every path. Build a fresh plan per
   attempt: a replan after a transient fault runs clean. *)

open Xsc_linalg
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag
module PD = Xsc_tile.Packed.D
module Harness = Xsc_resilience.Harness
module Cg = Xsc_sparse.Cg
module Mg = Xsc_sparse.Mg

exception Non_convergence of string

let () =
  Printexc.register_printer (function
    | Non_convergence msg -> Some ("Route.Non_convergence: " ^ msg)
    | _ -> None)

type t = {
  dag : Dag.t;
  interp : (Task.op -> unit) option;
  finish : unit -> Request.solution;
  cleanup : unit -> unit;
  tiled : bool;
}

let default_nb () = Xsc_tile.Packed.tuned_nb ~fallback:64

(* Pack [a] (n x n) into the padded packed buffer, identity on the pad
   diagonal (harmless for SPD and for diagonally dominant LU), writing
   every element — pooled buffers come back dirty. *)
let pack_padded (p : PD.t) (a : Mat.t) =
  let n = a.Mat.rows in
  let nb = p.PD.nb in
  let ad = a.Mat.data and buf = p.PD.buf in
  for bi = 0 to p.PD.nt - 1 do
    for bj = 0 to p.PD.nt - 1 do
      let base = PD.off p bi bj in
      let j0 = bj * nb in
      (* columns [j0, head) come from [a]; the rest of the row is pad *)
      let head = max j0 (min n (j0 + nb)) in
      for r = 0 to nb - 1 do
        let gi = (bi * nb) + r in
        let dst = base + (r * nb) - j0 in
        if gi < n then begin
          let src = gi * n in
          for gj = j0 to head - 1 do
            buf.{dst + gj} <- ad.(src + gj)
          done;
          for gj = head to j0 + nb - 1 do
            buf.{dst + gj} <- 0.0
          done
        end
        else
          for gj = j0 to j0 + nb - 1 do
            buf.{dst + gj} <- (if gi = gj then 1.0 else 0.0)
          done
      done
    done
  done

(* Padded forward/back substitution against a packed Cholesky factor:
   identity pad rows solve to b's pad (zero), so the head is unaffected. *)
let spd_finish cell n padded b () =
  let p = match !cell with Some p -> p | None -> assert false in
  let bp = Scratch.acquire_vec padded in
  Array.blit b 0 bp 0 n;
  Array.fill bp n (padded - n) 0.0;
  let y = PD.potrs p bp in
  Scratch.release_vec bp;
  Scratch.release_packed p;
  cell := None;
  Request.Vector (Array.sub y 0 n)

(* L U x = b against the packed unpivoted factor: unit-lower forward then
   upper backward substitution, element order matching Blas.trsv
   ([~diag:Unit] then [NonUnit]) on the unpacked factor. *)
let lu_solve_packed (p : PD.t) b =
  let n = p.PD.n in
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (PD.get p i j *. y.(j))
    done;
    y.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (PD.get p i j *. y.(j))
    done;
    y.(i) <- !acc /. PD.get p i i
  done;
  y

let lu_finish cell n padded b () =
  let p = match !cell with Some p -> p | None -> assert false in
  let bp = Scratch.acquire_vec padded in
  Array.blit b 0 bp 0 n;
  Array.fill bp n (padded - n) 0.0;
  let y = lu_solve_packed p bp in
  Scratch.release_vec bp;
  Scratch.release_packed p;
  cell := None;
  Request.Vector (Array.sub y 0 n)

let release_cell cell () =
  match !cell with
  | Some p ->
    Scratch.release_packed p;
    cell := None
  | None -> ()

(* Prepend the pack task (id 0, writes every tile) to an op task list
   (ids shifted by one; accesses use the same [stride = nt] datum ids, so
   Dag.build derives pack -> everything). *)
let with_pack_task ~nt ~nb ~padded pack ops =
  let datums = ref [] in
  for i = nt - 1 downto 0 do
    for j = nt - 1 downto 0 do
      datums := Task.Write (Task.datum i j ~stride:nt) :: !datums
    done
  done;
  let pack_task =
    Task.make ~id:0 ~name:"pack" ~flops:(float_of_int (padded * padded))
      ~bytes:(8.0 *. float_of_int (nb * nb)) ~run:pack !datums
  in
  let shifted =
    List.map
      (fun (t : Task.t) ->
        Task.make ~id:(t.Task.id + 1) ~name:t.Task.name ~flops:t.Task.flops
          ~bytes:t.Task.bytes ?run:t.Task.run ?op:t.Task.op t.Task.accesses)
      ops
  in
  Dag.build (pack_task :: shifted)

let wrap_interp harness ~key interp =
  match harness with
  | None -> interp
  | Some h -> Harness.wrap_interp_key h ~key interp

let tiled_plan ~harness ~key ~nb a ops_of interp_of finish_of =
  let n = a.Mat.rows in
  let padded = (n + nb - 1) / nb * nb in
  let nt = padded / nb in
  let cell : PD.t option ref = ref None in
  let pack () =
    let p = Scratch.acquire_packed ~n:padded ~nb in
    pack_padded p a;
    cell := Some p
  in
  let dag = with_pack_task ~nt ~nb ~padded pack (ops_of ~nt ~nb) in
  let interp0 op =
    match !cell with
    | Some p -> interp_of p op
    | None -> assert false (* every op task is a DAG successor of pack *)
  in
  {
    dag;
    interp = Some (wrap_interp harness ~key interp0);
    finish = finish_of cell ~padded;
    cleanup = release_cell cell;
    tiled = true;
  }

(* Pivoting LU and GEMM have no op encoding: one closure task computing
   into a cell. Deadline-tagged and pool-isolated like any job, just
   without intra-request parallelism. *)
let thunk_plan ~harness ~key compute =
  let cell = ref None in
  let body =
    match harness with
    | None -> fun () -> cell := Some (compute ())
    | Some h -> fun () -> cell := Some (Harness.wrap_thunk h ~key compute)
  in
  let task = Task.make ~id:0 ~name:"solve" ~flops:0.0 ~run:body [ Task.Write 0 ] in
  {
    dag = Dag.build [ task ];
    interp = None;
    finish =
      (fun () -> match !cell with Some s -> s | None -> assert false);
    cleanup = (fun () -> cell := None);
    tiled = false;
  }

(* Sparse iterative solves run as a sequential CHAIN of chunk tasks: task 0
   builds the resumable stepper, each later task advances it one chunk of
   iterations. Every task writes datum 0, so [Dag.build] serialises the
   chain in id order — any pool interleaving performs exactly the
   sequential solve's arithmetic, keeping the bitwise-oracle contract. The
   pool can still preempt BETWEEN chunks, which bounds the head-of-line
   blocking a long bandwidth-bound solve inflicts on dense traffic; the
   concurrency cap on sparse classes (Server.class_caps) leans on this.
   Fault injection wraps the setup body ([Harness.wrap_thunk], same
   hash/fired-set as the dense closure plans). *)
let chain_plan ~harness ~key ~name ~chunks ~setup ~chunk ~finish_of =
  let cell = ref None in
  let setup_body =
    match harness with
    | None -> fun () -> cell := Some (setup ())
    | Some h -> fun () -> cell := Some (Harness.wrap_thunk h ~key setup)
  in
  let chunk_body () =
    match !cell with
    | Some s -> chunk s
    | None -> assert false (* chained after setup via datum 0 *)
  in
  let tasks =
    Task.make ~id:0 ~name:(name ^ "-setup") ~flops:0.0 ~run:setup_body
      [ Task.Write 0 ]
    :: List.init chunks (fun i ->
           Task.make ~id:(i + 1) ~name:(name ^ "-chunk") ~flops:0.0
             ~run:chunk_body [ Task.Write 0 ])
  in
  {
    dag = Dag.build tasks;
    interp = None;
    finish =
      (fun () ->
        match !cell with
        | Some s ->
          let sol = finish_of s in
          cell := None;
          sol
        | None -> assert false);
    cleanup = (fun () -> cell := None);
    tiled = false;
  }

(* Chunk sizing: small enough that a dense arrival never waits long behind
   one chunk, large enough that the chain's task count stays modest. *)
let cg_chunk_iters = 32
let mg_chunk_cycles = 2
let max_chain_chunks = 64

let chunking ~budget ~per =
  let chunks = min max_chain_chunks ((budget + per - 1) / per) in
  let per_chunk = (budget + chunks - 1) / chunks in
  (chunks, per_chunk)

let cg_plan ~harness ~key ~a ~b ~tol ~max_iter =
  let chunks, per_chunk = chunking ~budget:max_iter ~per:cg_chunk_iters in
  chain_plan ~harness ~key ~name:"cg" ~chunks
    ~setup:(fun () -> Cg.stepper ~max_iter ~tol a b)
    ~chunk:(fun s -> Cg.step s per_chunk)
    ~finish_of:(fun s ->
      (* Cg.result recomputes the TRUE residual b - A x: a stagnated or
         corrupted solve fails typed here, never returns silently wrong. *)
      let r = Cg.result s in
      if not r.Cg.converged then
        raise
          (Non_convergence
             (Printf.sprintf "cg: residual %.3e after %d iterations (cap %d)"
                r.Cg.residual_norm r.Cg.iterations max_iter));
      Request.Vector r.Cg.x)

let mg_plan ~harness ~key ~grid ~levels ~b ~tol ~max_cycles =
  let chunks, per_chunk = chunking ~budget:max_cycles ~per:mg_chunk_cycles in
  chain_plan ~harness ~key ~name:"mg" ~chunks
    ~setup:(fun () ->
      let hier = Mg.create ~levels grid in
      Mg.stepper ~tol ~max_cycles hier b)
    ~chunk:(fun s -> Mg.step s per_chunk)
    ~finish_of:(fun s ->
      let x, cycles = Mg.solution s in
      if not (Mg.converged s) then
        raise
          (Non_convergence
             (Printf.sprintf "mg: no convergence after %d cycles (cap %d)"
                cycles max_cycles));
      Request.Vector x)

let strictly_diag_dominant (a : Mat.t) =
  let n = a.Mat.rows in
  let ok = ref true in
  for i = 0 to n - 1 do
    let off = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then off := !off +. abs_float (Mat.get a i j)
    done;
    if abs_float (Mat.get a i i) <= !off then ok := false
  done;
  !ok

let plan ?harness ?nb ~key (payload : Request.payload) =
  let nb = match nb with Some nb -> nb | None -> default_nb () in
  match payload with
  | Request.Spd_solve (a, b) ->
    tiled_plan ~harness ~key ~nb a Xsc_core.Cholesky.tasks_ops
      Xsc_core.Cholesky.packed_interp
      (fun cell ~padded -> spd_finish cell a.Mat.rows padded b)
  | Request.Lu_solve (a, b) when strictly_diag_dominant a ->
    tiled_plan ~harness ~key ~nb a Xsc_core.Lu.tasks_ops Xsc_core.Lu.packed_interp
      (fun cell ~padded -> lu_finish cell a.Mat.rows padded b)
  | Request.Lu_solve (a, b) ->
    thunk_plan ~harness ~key (fun () -> Request.Vector (Lapack.lu_solve a b))
  | Request.Gemm (a, b) ->
    thunk_plan ~harness ~key (fun () ->
        let ra, _ = Mat.dims a and _, cb = Mat.dims b in
        let c = Mat.create ra cb in
        Blas.gemm ~alpha:1.0 a b ~beta:0.0 c;
        Request.Matrix c)
  | Request.Cg_solve { a; b; tol; max_iter } ->
    cg_plan ~harness ~key ~a ~b ~tol ~max_iter
  | Request.Mg_solve { grid; levels; b; tol; max_cycles } ->
    mg_plan ~harness ~key ~grid ~levels ~b ~tol ~max_cycles

(* The per-request oracle: the same plan, executed sequentially on the
   calling domain with no faults. Any pool execution of an equal plan is
   bitwise identical (packed kernels are schedule-independent). *)
let direct ?nb (payload : Request.payload) =
  let p = plan ?nb ~key:(-1) payload in
  match
    Array.iter
      (fun task -> Xsc_runtime.Real_exec.exec_body p.interp task)
      p.dag.Dag.tasks
  with
  | () -> p.finish ()
  | exception e ->
    p.cleanup ();
    raise e
