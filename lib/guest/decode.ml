exception Bad_instruction of { addr : int; reason : string }

type fetch = int -> int

let bad addr fmt =
  Printf.ksprintf (fun reason -> raise (Bad_instruction { addr; reason })) fmt

(* A decode cursor over the fetch function. *)
type cursor = { fetch : fetch; start : int; mutable pos : int }

let u8 c =
  let v = c.fetch c.pos land 0xFF in
  c.pos <- c.pos + 1;
  v

let u32 c =
  let b0 = u8 c in
  let b1 = u8 c in
  let b2 = u8 c in
  let b3 = u8 c in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let sext32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let reg c =
  let v = u8 c in
  if v > 7 then bad c.start "bad register %d" v else Insn.reg_of_index v

let mem c : int Insn.mem_operand =
  let b1 = u8 c in
  let b2 = u8 c in
  let base =
    if b1 land 0x80 <> 0 then Some (Insn.reg_of_index ((b1 lsr 4) land 7))
    else None
  in
  let index =
    if b1 land 0x08 <> 0 then begin
      let r = Insn.reg_of_index (b1 land 7) in
      let s =
        match b2 land 3 with
        | 0 -> Insn.S1 | 1 -> S2 | 2 -> S4 | _ -> S8
      in
      Some (r, s)
    end
    else None
  in
  let disp = u32 c in
  { base; index; disp }

let operand c : int Insn.operand =
  match u8 c with
  | 0 -> Reg (reg c)
  | 1 -> Imm (u32 c)
  | 2 -> Mem (mem c)
  | k -> bad c.start "bad operand kind %d" k

let no_imm c (op : int Insn.operand) =
  match op with
  | Imm _ -> bad c.start "immediate operand not allowed here"
  | Reg _ | Mem _ -> op

let cond c =
  let v = u8 c in
  if v > 15 then bad c.start "bad condition %d" v else Insn.cond_of_index v

(* [rel_target] reads the displacement and resolves it against the end of
   the instruction, which for all direct-transfer encodings is the current
   cursor position after the displacement itself. *)
let rel_target c =
  let rel = sext32 (u32 c) in
  Flags.mask32 (c.pos + rel)

let decode fetch ~at =
  let c = { fetch; start = at; pos = at } in
  let insn : int Insn.t =
    match u8 c with
    | 0x01 ->
      let d = operand c in
      let s = operand c in
      Mov (no_imm c d, s)
    | 0x02 ->
      let d = operand c in
      let s = operand c in
      Movb (no_imm c d, s)
    | 0x03 ->
      let r = reg c in
      Movzxb (r, no_imm c (operand c))
    | 0x04 ->
      let r = reg c in
      Movsxb (r, no_imm c (operand c))
    | 0x05 -> begin
      let r = reg c in
      match operand c with
      | Mem m -> Lea (r, m)
      | Reg _ | Imm _ -> bad at "lea needs a memory operand"
    end
    | op when op >= 0x10 && op <= 0x18 ->
      let a : Insn.alu =
        match op - 0x10 with
        | 0 -> Add | 1 -> Adc | 2 -> Sub | 3 -> Sbb | 4 -> And
        | 5 -> Or | 6 -> Xor | 7 -> Cmp | _ -> Test
      in
      let d = operand c in
      let s = operand c in
      (* [cmp] and [test] only read their first operand. *)
      Alu (a, (if Insn.alu_writes_dst a then no_imm c d else d), s)
    | 0x06 -> begin
      let u : Insn.unop =
        match u8 c with
        | 0 -> Inc | 1 -> Dec | 2 -> Neg | 3 -> Not
        | n -> bad at "bad unop %d" n
      in
      Unop (u, no_imm c (operand c))
    end
    | op when op >= 0x20 && op <= 0x24 ->
      let sh : Insn.shift =
        match op - 0x20 with
        | 0 -> Shl | 1 -> Shr | 2 -> Sar | 3 -> Rol | _ -> Ror
      in
      let amt_byte = u8 c in
      let amt : Insn.shift_amount =
        if amt_byte = 0xFF then Sh_cl
        else if amt_byte <= 31 then Sh_imm amt_byte
        else bad at "bad shift count %d" amt_byte
      in
      Shift (sh, no_imm c (operand c), amt)
    | 0x30 ->
      let r = reg c in
      Imul (r, operand c)
    | 0x31 -> Mul (no_imm c (operand c))
    | 0x32 -> Div (no_imm c (operand c))
    | 0x33 -> Idiv (no_imm c (operand c))
    | 0x34 -> Cdq
    | 0x40 -> Push (operand c)
    | 0x41 -> Pop (no_imm c (operand c))
    | 0x42 ->
      let b = u8 c in
      Xchg (Insn.reg_of_index ((b lsr 4) land 7), Insn.reg_of_index (b land 7))
    | 0x43 ->
      let cd = cond c in
      Setcc (cd, no_imm c (operand c))
    | 0x44 ->
      let cd = cond c in
      let rd = reg c in
      Cmovcc (cd, rd, operand c)
    | 0x70 -> Rep_movsb
    | 0x71 -> Rep_stosb
    | 0x50 -> Jmp (Direct (rel_target c))
    | 0x51 -> Jmp (Indirect (no_imm c (operand c)))
    | 0x52 ->
      let cd = cond c in
      Jcc (cd, rel_target c)
    | 0x53 -> Call (Direct (rel_target c))
    | 0x54 -> Call (Indirect (no_imm c (operand c)))
    | 0x55 -> Ret
    | 0x60 -> Int (u8 c)
    | 0x90 -> Nop
    | 0xF4 -> Hlt
    | op -> bad at "unknown opcode 0x%02x" op
  in
  (insn, c.pos - at)

let decode_string s ~at ~origin =
  let fetch addr =
    let i = addr - origin in
    if i < 0 || i >= String.length s then
      raise (Bad_instruction { addr; reason = "fetch out of image" })
    else Char.code s.[i]
  in
  decode fetch ~at
