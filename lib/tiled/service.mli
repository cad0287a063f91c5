open Vat_desim

(** A tile acting as a serialized service center.

    Requests arrive (after their network latency), queue FIFO, and are
    served one at a time; the handler returns the service occupancy in
    cycles and an action to run at completion (typically sending a reply).
    This one-at-a-time discipline is what creates congestion at shared
    tiles — the paper's central observation about the L2 code-cache
    manager tile. *)

type 'req t

val create :
  ?trace:Vat_trace.Trace.t ->
  Event_queue.t ->
  name:string ->
  serve:('req -> int * (unit -> unit)) ->
  'req t
(** [serve req] returns [(occupancy_cycles, on_complete)]. With [trace]
    (default disabled) the service records on the track [name]:
    [Msg_recv] at each arrival (arg = queue length after enqueue),
    [Serve_begin] when a request enters service (arg = queue length),
    [Serve_end] at completion (arg = occupancy). *)

val submit : 'req t -> delay:int -> 'req -> unit
(** Deliver a request after [delay] cycles (its network latency). *)

val queue_length : _ t -> int
(** Requests waiting or in service right now. *)

val max_queue_length : _ t -> int
(** High-water mark of {!queue_length} over the run (measured at each
    arrival; tracked unconditionally — it is a handful of compares). *)

val busy_cycles : _ t -> int
(** Total cycles spent serving (utilization numerator). *)

val served : _ t -> int

val capture : _ t -> int list
(** Every mutable scalar of the service (queue length, in-service and
    paused flags, busy/served/dropped/corrupted/duplicated counters, fault
    budgets, slow-down state, waiter count, queue high-water mark) in a
    fixed order — the service's contribution to a checkpoint section.
    Pure observation: calling it never perturbs timing. *)

val drain_then : _ t -> (unit -> unit) -> unit
(** Run an action once the service is idle with an empty queue (used by
    reconfiguration to let a tile finish its current work before it
    changes role). Fires immediately if already idle. *)

val set_paused : _ t -> bool -> unit
(** A paused service accepts and queues requests but does not start
    serving new ones (in-flight service completes). Used while a tile's
    role is being morphed. *)

(** {2 Fault state}

    A service never raises on a fault — failure manifests to callers as
    silence (a reply that does not arrive), which upper layers detect via
    deadlines and a watchdog. *)

val fail : 'req t -> 'req list
(** Fail-stop: permanently kill the tile. Queued requests are dropped and
    returned (so a caller can re-route them); a request in service is
    abandoned mid-flight — its reply is never sent; future arrivals are
    rejected. *)

val failed : _ t -> bool

val inject : 'req t -> Fault.kind -> unit
(** Inject a message fault:
    - [Drop_requests n]: silently lose the next [n] requests that arrive.
    - [Slow { factor; cycles }]: multiply service occupancy by [factor]
      for the next [cycles] cycles (a degraded, not dead, tile);
      [factor <= 1] restores nominal speed.
    - [Corrupt_payload n]: the next [n] requests that arrive are
      delivered through the owner's corrupt transformer (see
      {!set_corrupt_handler}). Without one, a corrupted message is
      undecodable and is silently lost (counted in {!dropped} and
      {!corrupted}); upper-layer deadlines recover it.
    - [Duplicate_delivery n]: the next [n] requests that arrive are
      delivered twice; the owner's handler must be idempotent.

    Raises [Invalid_argument] for [Fail_stop] (see {!fail}) and
    [Corrupt_storage]. *)

val dropped : _ t -> int
(** Total requests lost to faults (queued at fail-stop, abandoned in
    service, rejected after failure, or transiently dropped). *)

val set_reject_handler : 'req t -> ('req -> unit) -> unit
(** Called (at arrival time) for each request arriving at a failed
    service; lets an owner re-route traffic to surviving tiles. *)

val corrupted : _ t -> int
(** Requests hit by [Corrupt_payload] so far. *)

val duplicated : _ t -> int
(** Requests redelivered by [Duplicate_delivery] so far. *)

val set_corrupt_handler : 'req t -> ('req -> 'req) -> unit
(** How a corrupted request manifests: the transformer returns the
    bit-flipped version of the message (typically tagging it so a
    downstream checksum verification fails), preserving the invariant
    that corruption is {e detectable}, never silently absorbed. *)
