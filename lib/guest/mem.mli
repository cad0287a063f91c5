(** Flat byte-addressable guest physical memory.

    Little-endian, fixed size, bounds-checked. Page-granularity store
    generations support self-modifying-code detection: every store bumps the
    generation of the page it touches, and consumers (the interpreter's
    decode cache, the DBT's translated-page registry) compare generations to
    notice that cached code may be stale. *)

exception Fault of { addr : int; access : string }

type t

val create : size:int -> t
(** Zero-filled memory of [size] bytes. [size] is rounded up to a whole
    number of pages. *)

val size : t -> int

val copy : t -> t
(** Deep copy: fresh backing store and page generations. Writes to either
    copy never alias the other. *)

val page_size : int
(** 4096 bytes. *)

val read_u8 : t -> int -> int
val read_u32 : t -> int -> int
(** Unsigned 32-bit little-endian load (result in [0, 2^32)). *)

val write_u8 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit

val load_string : t -> at:int -> string -> unit
(** Copy a string into memory. Counts as a store for page generations. *)

val read_string : t -> at:int -> len:int -> string

val page_of : int -> int
val page_generation : t -> page:int -> int
(** Monotonic counter bumped by every store touching [page]; 0 means the
    page was never stored to. *)

val checksum : t -> int
(** Order-dependent FNV-style fold over every byte [b] at addresses
    [0 .. size t - 1], in address order: starting from [h = 0xcbf29ce4],
    [h := ((h lxor b) * 0x100000001b3) land max_int]. It backs run digests
    ({!Interp.state_digest}), VM fingerprints and every checkpoint capture.

    Cost: one multiply for each page whose generation is still 0, plus
    4,096 steps for each page that was stored to. A never-stored page still
    holds the zeros {!create} wrote, and a zero byte only multiplies the
    state by the prime, so the whole page is one multiply by a precomputed
    power. This is exact only if every writer bumps the generation of each
    page it changes; a new mutator of [t] must do so too. *)
