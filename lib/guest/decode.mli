(** G86 binary instruction decoder.

    Decoding is the first stage of the translator front end. All decoded
    immediates and displacements are normalized to the canonical unsigned
    32-bit representation ([0, 2^32)); direct branch targets are converted
    from relative displacements to absolute guest addresses. *)

exception Bad_instruction of { addr : int; reason : string }

type fetch = int -> int
(** Byte fetch function: guest address -> byte value (0..255). *)

val decode : fetch -> at:int -> int Insn.t * int
(** [decode fetch ~at] decodes the instruction at guest address [at],
    returning it with its encoded length. Raises {!Bad_instruction} on an
    unknown opcode or malformed operand, including an immediate where the
    instruction writes that operand. *)

val decode_string : string -> at:int -> origin:int -> int Insn.t * int
(** Decode from a string holding an image that starts at guest address
    [origin]. *)
