open Vat_desim

type 'req t = {
  q : Event_queue.t;
  serve : 'req -> int * (unit -> unit);
  (* FIFO ring of waiting requests: [count] of them from [head]. Empty
     until the first arrival, which also fills the slots (['req] has no
     value to fill them with before that); its length is then a power of
     two, so an index wraps with a mask. *)
  mutable ring : 'req array;
  mutable head : int;
  mutable count : int;
  mutable in_service : bool;
  (* The request in service (only ever one): its occupancy and completion
     action, run by [complete], the closure built once at creation. *)
  mutable occupancy : int;
  mutable on_complete : unit -> unit;
  mutable complete : unit -> unit;
  mutable paused : bool;
  mutable busy_cycles : int;
  mutable served : int;
  mutable waiters : (unit -> unit) list;
  mutable failed : bool;
  mutable slow_factor : int;
  mutable slow_until : int;
  mutable drop_budget : int;
  mutable dropped : int;
  mutable corrupt_budget : int;
  mutable corrupted : int;
  mutable dup_budget : int;
  mutable duplicated : int;
  on_reject : 'req -> unit;
  on_corrupt : ('req -> 'req) option;
  mutable max_queue : int;
  (* Trace probes on the service's own track: an untraced service pays
     one dead branch per event (see Vat_trace.Trace). *)
  pr_recv : Vat_trace.Trace.emitter;
  pr_start : Vat_trace.Trace.emitter;
  pr_stop : Vat_trace.Trace.emitter;
}

let slot t k = (t.head + k) land (Array.length t.ring - 1)

let push t req =
  let cap = Array.length t.ring in
  if t.count = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) req in
    for k = 0 to t.count - 1 do
      bigger.(k) <- t.ring.(slot t k)
    done;
    t.ring <- bigger;
    t.head <- 0
  end;
  t.ring.(slot t t.count) <- req;
  t.count <- t.count + 1

let pop t =
  let req = t.ring.(t.head) in
  t.head <- slot t 1;
  t.count <- t.count - 1;
  req

(* "Idle" for drain purposes: nothing in service, and nothing startable
   (a paused service with queued work counts as drained — the queue will
   resume after the role change). *)
let idle t = (not t.in_service) && (t.paused || t.count = 0)

let notify_if_idle t =
  if idle t && t.waiters <> [] then begin
    let ws = List.rev t.waiters in
    t.waiters <- [];
    List.iter (fun w -> w ()) ws
  end

let rec start_next t =
  if (not t.in_service) && (not t.paused) && (not t.failed) && t.count > 0
  then begin
    let req = pop t in
    let occupancy, on_complete = t.serve req in
    let occupancy =
      if t.slow_factor > 1 && Event_queue.now t.q < t.slow_until then
        occupancy * t.slow_factor
      else occupancy
    in
    t.in_service <- true;
    t.occupancy <- occupancy;
    t.on_complete <- on_complete;
    t.busy_cycles <- t.busy_cycles + occupancy;
    Vat_trace.Trace.emit t.pr_start
      ~cycle:(Event_queue.now t.q)
      ~arg:(t.count + 1);
    Event_queue.after t.q ~delay:(max 1 occupancy) t.complete
  end

and complete t =
  let on_complete = t.on_complete in
  t.on_complete <- ignore;
  t.in_service <- false;
  Vat_trace.Trace.emit t.pr_stop ~cycle:(Event_queue.now t.q) ~arg:t.occupancy;
  if t.failed then begin
    (* The tile died mid-service: the reply is never sent. *)
    t.dropped <- t.dropped + 1;
    notify_if_idle t
  end
  else begin
    t.served <- t.served + 1;
    on_complete ();
    start_next t;
    notify_if_idle t
  end

let create ?(trace = Vat_trace.Trace.disabled) ?(on_reject = ignore) ?on_corrupt
    q ~name ~serve =
  let track = Vat_trace.Trace.track trace name in
  let probe kind = Vat_trace.Trace.emitter trace ~track kind in
  let t =
    { q;
      serve;
      ring = [||];
      head = 0;
      count = 0;
      in_service = false;
      occupancy = 0;
      on_complete = ignore;
      complete = ignore;
      paused = false;
      busy_cycles = 0;
      served = 0;
      waiters = [];
      failed = false;
      slow_factor = 1;
      slow_until = 0;
      drop_budget = 0;
      dropped = 0;
      corrupt_budget = 0;
      corrupted = 0;
      dup_budget = 0;
      duplicated = 0;
      on_reject;
      on_corrupt;
      max_queue = 0;
      pr_recv = probe Vat_trace.Trace.Msg_recv;
      pr_start = probe Vat_trace.Trace.Serve_begin;
      pr_stop = probe Vat_trace.Trace.Serve_end }
  in
  t.complete <- (fun () -> complete t);
  t

let enqueue t req =
  push t req;
  if t.dup_budget > 0 then begin
    (* The interconnect redelivers the message; receivers must
       treat the copy idempotently. *)
    t.dup_budget <- t.dup_budget - 1;
    t.duplicated <- t.duplicated + 1;
    push t req
  end;
  let ql = t.count + if t.in_service then 1 else 0 in
  if ql > t.max_queue then t.max_queue <- ql;
  Vat_trace.Trace.emit t.pr_recv ~cycle:(Event_queue.now t.q) ~arg:ql;
  start_next t

let arrive t req =
  if t.failed then begin
    t.dropped <- t.dropped + 1;
    t.on_reject req
  end
  else if t.drop_budget > 0 then begin
    (* Transient loss: the request vanishes in flight. *)
    t.drop_budget <- t.drop_budget - 1;
    t.dropped <- t.dropped + 1
  end
  else if t.corrupt_budget <= 0 then enqueue t req
  else begin
    (* Soft error in flight: the message arrives bit-flipped. The
       owner's transformer marks it corrupt (so checksums catch it
       downstream); without one the message is undecodable and is
       simply lost — the deadline/retry layer recovers it. *)
    t.corrupt_budget <- t.corrupt_budget - 1;
    t.corrupted <- t.corrupted + 1;
    match t.on_corrupt with
    | Some f -> enqueue t (f req)
    | None -> t.dropped <- t.dropped + 1
  end

let submit t ~delay req =
  Event_queue.after t.q ~delay:(max 0 delay) (fun () -> arrive t req)

let queue_length t = t.count + if t.in_service then 1 else 0
let max_queue_length t = t.max_queue

(* Checkpoint observation: every mutable scalar of the service, in a
   fixed order. Requests themselves are closures/records the snapshot
   layer cannot serialize, so only counts are captured — enough for the
   verified-replay restore protocol, which compares state rather than
   reconstructing it. *)
let capture t =
  let b v = if v then 1 else 0 in
  [ t.count;
    b t.in_service;
    b t.paused;
    t.busy_cycles;
    t.served;
    List.length t.waiters;
    b t.failed;
    t.slow_factor;
    t.slow_until;
    t.drop_budget;
    t.dropped;
    t.corrupt_budget;
    t.corrupted;
    t.dup_budget;
    t.duplicated;
    t.max_queue ]
let busy_cycles t = t.busy_cycles
let served t = t.served

let drain_then t action =
  if idle t then action () else t.waiters <- action :: t.waiters

let set_paused t paused =
  t.paused <- paused;
  if not paused then start_next t

(* ------------------------------------------------------------------ *)
(* Fault state                                                         *)
(* ------------------------------------------------------------------ *)

let fail t =
  t.failed <- true;
  let orphans =
    List.init t.count (fun k -> t.ring.(slot t k))
  in
  t.head <- 0;
  t.count <- 0;
  t.dropped <- t.dropped + List.length orphans;
  notify_if_idle t;
  orphans

let failed t = t.failed

let inject t (kind : Fault.kind) =
  match kind with
  | Drop_requests n -> t.drop_budget <- t.drop_budget + max 0 n
  | Slow { factor; _ } when factor <= 1 ->
    t.slow_factor <- 1;
    t.slow_until <- 0
  | Slow { factor; cycles } ->
    t.slow_factor <- factor;
    t.slow_until <- Event_queue.now t.q + max 0 cycles
  | Corrupt_payload n -> t.corrupt_budget <- t.corrupt_budget + max 0 n
  | Duplicate_delivery n -> t.dup_budget <- t.dup_budget + max 0 n
  | Fail_stop | Corrupt_storage -> invalid_arg "Service.inject"

let dropped t = t.dropped
let corrupted t = t.corrupted
let duplicated t = t.duplicated
