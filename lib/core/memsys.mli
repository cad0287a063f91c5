open Vat_desim

(** The pipelined guest data-memory system: MMU/TLB tile feeding banked L2
    data-cache tiles backed by off-chip DRAM (paper Figure 2).

    This is a timing model — data values always come from the functional
    guest memory. Each stage is a serialized {!Vat_tiled.Service}, so
    concurrent misses queue and the pipeline overlaps with execution.
    Reconfiguration can change the number of active banks at runtime
    (flushing them, since the address interleave changes). *)

type t

val create :
  ?trace:Vat_trace.Trace.t ->
  Event_queue.t ->
  Stats.t ->
  Config.t ->
  Layout.t ->
  page_table:int array ->
  t
(** [trace] (default disabled) records MMU and bank service occupancy on
    the "mmu"/"l2d.N" tracks, per-bank cache hit/miss events, and
    recovery-path instants (retries, direct-DRAM fallbacks, re-banking).
    Tracing only observes; timing is unchanged. *)

val access : t -> addr:int -> write:bool -> on_done:(unit -> unit) -> unit
(** Submit a miss from the execution tile's L1 data cache at the current
    event-queue time plus the exec->MMU latency. [on_done] fires when the
    reply reaches the execution tile. With {!Config.t.fault_tolerance}
    armed the request carries a deadline: lost replies are retried with
    exponential backoff, falling back to an uncached DRAM access (data is
    functional, so faults cost time, never correctness). *)

val active_banks : t -> int

val reconfigure_banks : t -> int -> on_done:(int -> unit) -> unit
(** Change the number of active banks: waits for the banks to drain,
    flushes them (writebacks cost cycles), then switches the interleave.
    [on_done] receives the number of dirty lines written back. *)

(** {2 Fault injection and recovery} *)

val apply_fault :
  t ->
  Fault.site ->
  Fault.kind ->
  salt:int ->
  allow_dirty:bool ->
  [ `Applied | `Absorbed | `Terminal ]
(** A fault-plan event at an L2D bank or the MMU ([Invalid_argument] for
    any other role):
    - fail-stop of physical bank [i] marks its pool tile failed; its
      queued and in-flight requests are lost (recovered by the access
      deadline), and a morph-style re-bank drains the survivors, flushes
      them, and re-hashes the line interleave over the remaining alive
      banks. With no banks left, the MMU serves accesses straight from
      DRAM;
    - fail-stop of the MMU is [`Terminal];
    - drops, slow-downs, garbled and duplicated messages are
      {!Vat_tiled.Service.inject}ed into the MMU or bank service; a
      garbled data-path request is dropped and the access deadline
      recovers it;
    - storage corruption flips bits in one resident line of bank [i],
      chosen from [salt] (see {!Vat_tiled.Cache.corrupt_line}). A dirty
      line is eligible, and preferred, only when [allow_dirty]: a run
      armed for rollback survives its loss.
    [`Absorbed] means the fault hit nothing: no eligible line, or storage
    corruption at the MMU. *)

val alive_banks : t -> int
val bank_alive : t -> int -> bool

(** {2 Transient corruption}

    The banks model parity: a detected-corrupt {e clean} line is scrubbed
    and refetched from DRAM (the access just costs more cycles); a
    detected-corrupt {e dirty} line lost the only copy of its data, so the
    fatal handler fires — the run ends in a clean fault, never a silent
    wrong value. *)

val set_fatal_handler : t -> (bank:int -> unit) -> unit
(** Called on an uncorrectable parity error with the offending physical
    bank. The VM ends the run with a fault or, armed for rollback,
    records the bank as the quarantine target for the next attempt. *)

val quarantine_bank : t -> int -> unit
(** Retire a bank whose parity-error rate crossed the quarantine
    threshold — same mechanics as a bank fail-stop, separate accounting.
    Refuses to retire the last alive bank (a policy monitor must not
    finish off the machine; an actual fault still can). *)

val recovery_retire_bank : t -> int -> unit
(** Unguarded retirement used by rollback-recovery when a bank holds
    provably poisoned dirty data: even the last bank goes (the MMU then
    serves uncached from DRAM), counted under
    ["recovery.quarantined_banks"]. *)

val bank_corruptions : t -> int array
(** Detected parity events per physical bank (what the quarantine monitor
    samples). *)

val parity_events : t -> int
(** Corrupt clean lines scrubbed across all banks. *)

val bank_queue_total : t -> int

val finalize : t -> unit
(** Add the end-of-run counters of the TLB and the MMU and bank services
    to the run's stats: TLB hits and misses, queue high-water marks
    ("svc.mmu_queue_hwm", "svc.l2d_queue_hwm") and requests dropped,
    garbled and duplicated by faults. *)

val capture : t -> string
(** Checkpoint section payload: TLB contents, banking geometry, per-bank
    cache digests, and every service's mutable scalars. Pure
    observation — capturing never perturbs timing. *)
