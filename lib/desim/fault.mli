(** Deterministic fault plans for the simulated fabric.

    A plan is a cycle-ordered schedule of faults against sites (a tile
    {!role} and an index among the tiles of that role); it carries the
    seed it was generated from, so a faulty run is replayable bit-for-bit
    from a single integer. The simulator layers above decide what a fault
    on each role does and how the system degrades — this module only
    describes {e what goes wrong when}.

    Fault taxonomy:
    - {!Fail_stop}: the site dies permanently; queued work is lost and new
      requests are rejected. Callers observe silence, never an exception.
    - {!Drop_requests}: transient — the next [n] requests arriving at the
      site vanish (a lossy network / soft-error model).
    - {!Slow}: the site serves at [1/factor] speed for [cycles] cycles (a
      thermally-throttled or partially-failed tile).
    - {!Corrupt_payload}: soft error in flight — the next [n] messages
      through the site arrive bit-flipped. Integrity machinery (checksums,
      CRCs) must detect them; an unprotected system would consume garbage.
    - {!Corrupt_storage}: soft error at rest — flip bits in one resident
      line of the site's storage (a code-cache block or an L2D cache
      line). Detected by checksum/parity on the next access.
    - {!Duplicate_delivery}: the interconnect redelivers the next [n]
      messages (a retransmission gone wrong); receivers must be
      idempotent. *)

type kind =
  | Fail_stop
  | Drop_requests of int
  | Slow of { factor : int; cycles : int }
  | Corrupt_payload of int
  | Corrupt_storage
  | Duplicate_delivery of int

(** Coarse families of {!kind}, for building restricted fault menus
    (e.g. [vat_run --fault-kinds corrupt-payload,duplicate]). *)
type kind_class =
  | C_fail_stop
  | C_drop
  | C_slow
  | C_corrupt_payload
  | C_corrupt_storage
  | C_duplicate

val class_of_kind : kind -> kind_class
val class_to_string : kind_class -> string
val class_of_string : string -> kind_class option

val all_classes : kind_class list

val legacy_classes : kind_class list
(** Fail-stop, drop, slow — the pre-corruption taxonomy, and the default
    menu contents (so plans drawn before the corruption kinds existed
    replay unchanged). *)

val corruption_classes : kind_class list
(** Corrupt-payload, corrupt-storage, duplicate. *)

type role = Exec | L15 | L2d | Manager | Mmu | Syscall | Translator
(** The tile roles a fault can hit, named by {!role_to_string} ["exec"],
    ["l15"], ["l2d"], ["manager"], ["mmu"], ["syscall"], ["translator"]. *)

val role_to_string : role -> string

type site = { role : role; index : int }
(** E.g. [{role = Translator; index = 3}] or [{role = Manager; index = 0}]. *)

type event = { at : int; site : site; kind : kind }
(** [at] is the injection cycle (event-queue time). *)

type plan

val site : ?index:int -> role -> site

val empty : plan
val is_empty : plan -> bool

val make : seed:int -> event list -> plan
(** Explicit plan; events are sorted by cycle, then by site (role in the
    alphabetical order of {!role_to_string}, then index), stably. *)

val random :
  seed:int -> horizon:int -> menu:(site * kind array) array -> count:int ->
  plan
(** [count] faults drawn uniformly over the [menu] of (site, allowed
    kinds) at cycles in [1, horizon]. Pure: identical arguments yield the
    identical plan. *)

val seed : plan -> int
val events : plan -> event list

val count_before : plan -> cycle:int -> int
(** Events scheduled strictly before [cycle] — the fault-plan cursor at a
    checkpoint boundary (a pure function of the plan, so reference and
    replayed runs agree on it). *)

val kind_to_string : kind -> string
val site_to_string : site -> string
val event_to_string : event -> string
val pp : Format.formatter -> plan -> unit
