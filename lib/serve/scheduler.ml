(* Earliest-deadline-first ready queue: a binary min-heap of flushed
   batches keyed by (deadline_ns, seq). The seq tie-break makes dispatch
   FIFO within a deadline class — two batches due at the same instant run
   in formation order, so no request is overtaken by an equal-urgency
   latecomer. Polymorphic in the batched request type (the heap only
   reads the batch's EDF key), so the live server and the fleet
   simulator share one EDF implementation. Not thread-safe: owned by
   Server, used under its lock. *)

type 'a t = { mutable heap : 'a Batcher.batch array; mutable size : int }

let create () = { heap = [||]; size = 0 }

let before (a : 'a Batcher.batch) (b : 'a Batcher.batch) =
  a.Batcher.deadline_ns < b.Batcher.deadline_ns
  || (a.Batcher.deadline_ns = b.Batcher.deadline_ns && a.Batcher.seq < b.Batcher.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t b =
  if t.size = Array.length t.heap then begin
    let cap = max 8 (2 * t.size) in
    let heap = Array.make cap b in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.heap.(t.size) <- b;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some top
  end

(* EDF among eligible batches: pop minima, stashing ineligible ones, then
   push the stash back. The stash is at most the number of distinct
   cap-blocked classes deep in practice, so the extra heap traffic is
   O(blocked classes * log size) per claim. *)
let pop_when eligible t =
  let rec go stash =
    match pop t with
    | None -> (None, stash)
    | Some b -> if eligible b then (Some b, stash) else go (b :: stash)
  in
  let found, stash = go [] in
  List.iter (push t) stash;
  found
