(* Dynamic batching: coalesce compatible requests (same class_key — same
   kernel, same size) so one dispatch amortises per-call overhead across
   the batch, the `Batched` story applied to live traffic.

   Two flush triggers, as in continuous-batching inference servers:
   - size: a class reaching [max_batch] flushes immediately;
   - time: an open class flushes once its oldest member has lingered
     [linger_ns], or earlier when the most urgent member's deadline is
     within [linger_ns] — a near-deadline request must not sit waiting
     for company it may never get.

   Polymorphic in the request type: the live server batches
   [Request.t] values, the fleet simulator batches its own lightweight
   simulated requests through the exact same coalescing logic — the
   classifier and deadline accessor are supplied at [create_keyed].

   Not thread-safe by design: the owner (Server) calls it under its state
   lock; keeping the mutex out of this module keeps the invariants testable
   single-threaded. *)

type config = { max_batch : int; linger_ns : int }

type 'a batch = {
  seq : int;
  class_key : string;
  requests : 'a array;  (* arrival order — FIFO within the class *)
  deadline_ns : int;  (* min member deadline: the EDF key *)
  opened_ns : int;  (* when the oldest member entered the batcher *)
}

type 'a slot = {
  key : string;
  mutable items : 'a list;  (* newest first *)
  mutable count : int;
  mutable slot_opened_ns : int;
  mutable min_deadline_ns : int;
}

type 'a t = {
  cfg : config;
  classify : 'a -> string;
  deadline_of : 'a -> int;
  slots : (string, 'a slot) Hashtbl.t;
  mutable seq : int;
  mutable pending_n : int;
}

let create_keyed ~classify ~deadline_of cfg =
  if cfg.max_batch <= 0 then invalid_arg "Batcher.create: max_batch must be positive";
  if cfg.linger_ns < 0 then invalid_arg "Batcher.create: linger_ns must be >= 0";
  { cfg; classify; deadline_of; slots = Hashtbl.create 8; seq = 0; pending_n = 0 }

let create cfg =
  create_keyed
    ~classify:(fun (r : Request.t) -> Request.class_key r.Request.payload)
    ~deadline_of:(fun (r : Request.t) -> r.Request.deadline_ns)
    cfg

let pending t = t.pending_n

let flush_slot t slot =
  Hashtbl.remove t.slots slot.key;
  t.pending_n <- t.pending_n - slot.count;
  let requests = Array.of_list (List.rev slot.items) in
  let b =
    {
      seq = t.seq;
      class_key = slot.key;
      requests;
      deadline_ns = slot.min_deadline_ns;
      opened_ns = slot.slot_opened_ns;
    }
  in
  t.seq <- t.seq + 1;
  b

let add t ~now_ns r =
  let key = t.classify r in
  let slot =
    match Hashtbl.find_opt t.slots key with
    | Some s -> s
    | None ->
      let s =
        {
          key;
          items = [];
          count = 0;
          slot_opened_ns = now_ns;
          min_deadline_ns = max_int;
        }
      in
      Hashtbl.add t.slots key s;
      s
  in
  slot.items <- r :: slot.items;
  slot.count <- slot.count + 1;
  let deadline = t.deadline_of r in
  if deadline < slot.min_deadline_ns then slot.min_deadline_ns <- deadline;
  t.pending_n <- t.pending_n + 1;
  if slot.count >= t.cfg.max_batch then Some (flush_slot t slot) else None

let due slot ~cfg ~now_ns =
  now_ns - slot.slot_opened_ns >= cfg.linger_ns
  || slot.min_deadline_ns - now_ns <= cfg.linger_ns

(* oldest class first; the class key breaks open-time ties so flush order
   never depends on hash-table iteration order — replayed simulations must
   form identical batch seq numbers *)
let flush_order a b =
  match compare a.slot_opened_ns b.slot_opened_ns with
  | 0 -> compare a.key b.key
  | c -> c

let flush_due t ~now_ns =
  let ripe =
    Hashtbl.fold
      (fun _ slot acc -> if due slot ~cfg:t.cfg ~now_ns then slot :: acc else acc)
      t.slots []
  in
  ripe |> List.sort flush_order |> List.map (flush_slot t)

let flush_all t =
  let all = Hashtbl.fold (fun _ slot acc -> slot :: acc) t.slots [] in
  all |> List.sort flush_order |> List.map (flush_slot t)
