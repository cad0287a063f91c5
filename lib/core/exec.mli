open Vat_desim
open Vat_guest

(** The runtime-execution tile: executes translated blocks with a timing
    model, dispatches between blocks through the code-cache hierarchy,
    chains direct branches in L1, scoreboards loads against the pipelined
    memory system, proxies system calls, and detects stores to translated
    pages.

    The engine runs ahead of the global event queue in local time while
    executing cache-hitting code, interacting with other tiles only
    through events scheduled at its local timestamp — see the design notes
    in DESIGN.md. *)

type outcome =
  | Exited of int
  | Fault of string
  | Out_of_fuel

val scratch_base : int
(** Start of the spill-slot region; guests must not touch it. *)

type t

val create :
  Event_queue.t ->
  Stats.t ->
  Config.t ->
  Layout.t ->
  Program.t ->
  manager:Manager.t ->
  memsys:Memsys.t ->
  ?input:string ->
  ?trace:Vat_trace.Trace.t ->
  unit ->
  t
(** [trace] (default disabled) records block entries, L1 code-cache
    events, and fill spans on the "exec"/"exec.fill" tracks, plus syscall
    service occupancy on "syscall" — all stamped with the engine's local
    time. Tracing only observes; timing is unchanged. *)

val start : t -> fuel:int -> on_finish:(outcome -> unit) -> unit
(** Begin execution at the program entry. [fuel] bounds retired guest
    instructions. [on_finish] fires (as an event) exactly once. *)

val local_time : t -> int
(** The engine's cycle counter (total executed cycles). *)

val abort : t -> string -> unit
(** Terminate the run with [Fault msg] as a clean outcome (no exception).
    Used for unrecoverable tile failures and watchdog stalls; a no-op if
    the run already finished. *)

val finished : t -> bool

val apply_fault :
  t -> Fault.site -> Fault.kind -> salt:int -> [ `Applied | `Absorbed | `Terminal ]
(** A fault-plan event at the execution or syscall tile ([Invalid_argument]
    for any other role):
    - a slow-down of the syscall tile is {!Vat_tiled.Service.inject}ed
      into its service;
    - storage corruption of the execution tile flips a bit in the stored
      sum of a resident L1 code entry, chosen from [salt]. It is detected
      at the next entry of that block (with fault tolerance armed the L1
      is flushed and the block refetched; corrupt code is never
      executed);
    - fail-stop or drops at either tile, or a slow execution tile, are
      [`Terminal];
    - [`Absorbed]: the L1 is empty, or the kind is a garbled or
      duplicated message, or storage corruption at the syscall tile. *)

val guest_instructions : t -> int
val output : t -> string
val guest_reg : t -> Insn.reg -> int
val digest : t -> int
(** {!Vat_guest.Interp.state_digest} of the guest state, so comparable
    with {!Vat_guest.Interp.digest} and the tests' translated-semantics
    reference. *)

val capture : t -> string
(** Checkpoint section payload: registers, memory/scratch digests,
    scoreboard and wait state, fuel, retirement count, OS-world state,
    L1 code/data digests, syscall-service scalars. Pure observation —
    capturing never perturbs timing. *)
