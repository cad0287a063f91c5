type mem_access = {
  load : Hinsn.width -> int -> int;
  store : Hinsn.width -> int -> int -> unit;
}

type step_result =
  | Next
  | Goto of int
  | Trapped of Hinsn.trap

let mask32 v = v land 0xFFFFFFFF

let sign32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let eval_alu3 (op : Hinsn.alu3) a b =
  match op with
  | Add -> mask32 (a + b)
  | Sub -> mask32 (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Nor -> mask32 (lnot (a lor b))
  | Slt -> if sign32 a < sign32 b then 1 else 0
  | Sltu -> if a < b then 1 else 0
  | Mul -> mask32 (a * b)
  | Mulh ->
    Int64.to_int
      (Int64.logand
         (Int64.shift_right
            (Int64.mul (Int64.of_int (sign32 a)) (Int64.of_int (sign32 b)))
            32)
         0xFFFFFFFFL)
  | Mulhu ->
    Int64.to_int
      (Int64.shift_right_logical (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)

let eval_alui (op : Hinsn.alui) a imm =
  match op with
  | Addi -> mask32 (a + imm)
  | Andi -> a land (imm land 0xFFFF)
  | Ori -> a lor (imm land 0xFFFF)
  | Xori -> a lxor (imm land 0xFFFF)
  | Slti -> if sign32 a < imm then 1 else 0
  | Sltiu -> if a < mask32 imm then 1 else 0

let eval_shift (op : Hinsn.shift) v count =
  let count = count land 31 in
  match op with
  | Sll -> mask32 (v lsl count)
  | Srl -> mask32 v lsr count
  | Sra -> mask32 (sign32 v asr count)

let eval_branch (c : Hinsn.brcond) a b =
  match c with
  | Beq -> a = b
  | Bne -> a <> b
  | Blez -> sign32 a <= 0
  | Bgtz -> sign32 a > 0
  | Bltz -> sign32 a < 0
  | Bgez -> sign32 a >= 0

let mask size = (1 lsl size) - 1

let eval_ext v pos size = (v lsr pos) land mask size

let eval_ins old v pos size =
  old land lnot (mask size lsl pos) lor ((v land mask size) lsl pos)
  |> mask32

let guest_eax = Hinsn.guest_reg_base
let guest_edx = Hinsn.guest_reg_base + 2

(* Top-level rather than local to [step]: without flambda, closures over
   [regs] would be allocated on every call. *)
let get regs r = if r = 0 then 0 else regs.(r)
let set regs r v = if r <> 0 then regs.(r) <- mask32 v

let step ~regs ~mem (insn : Hinsn.t) : step_result =
  match insn with
  | Nop -> Next
  | Alu3 (op, rd, rs, rt) ->
    set regs rd (eval_alu3 op (get regs rs) (get regs rt));
    Next
  | Alui (op, rd, rs, imm) ->
    set regs rd (eval_alui op (get regs rs) imm);
    Next
  | Lui (rd, imm) ->
    set regs rd ((imm land 0xFFFF) lsl 16);
    Next
  | Shifti (op, rd, rs, n) ->
    set regs rd (eval_shift op (get regs rs) n);
    Next
  | Shiftv (op, rd, rs, rc) ->
    set regs rd (eval_shift op (get regs rs) (get regs rc));
    Next
  | Ext (rd, rs, pos, size) ->
    set regs rd (eval_ext (get regs rs) pos size);
    Next
  | Ins (rd, rs, pos, size) ->
    set regs rd (eval_ins (get regs rd) (get regs rs) pos size);
    Next
  | Load (w, rd, base, off) ->
    set regs rd (mem.load w (mask32 (get regs base + off)));
    Next
  | Store (w, rv, base, off) ->
    let v =
      match w with
      | W8 -> get regs rv land 0xFF
      | W32 -> get regs rv
      | W8s -> invalid_arg "Hexec.step: store width W8s"
    in
    mem.store w (mask32 (get regs base + off)) v;
    Next
  | Branch (c, rs, rt, tgt) ->
    if eval_branch c (get regs rs) (get regs rt) then Goto tgt else Next
  | Jump tgt -> Goto tgt
  | Mul64 rs ->
    let wide =
      Int64.mul (Int64.of_int (get regs guest_eax)) (Int64.of_int (get regs rs))
    in
    set regs guest_eax (Int64.to_int (Int64.logand wide 0xFFFFFFFFL));
    set regs guest_edx (Int64.to_int (Int64.shift_right_logical wide 32));
    Next
  | Div64 { divisor; signed } ->
    let d32 = get regs divisor in
    let hi = get regs guest_edx and lo = get regs guest_eax in
    if d32 = 0 then Trapped Divide_error
    else if signed then begin
      let dividend =
        Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
      in
      let d = Int64.of_int (sign32 d32) in
      let q = Int64.div dividend d and rem = Int64.rem dividend d in
      if q > 0x7FFFFFFFL || q < -0x80000000L then Trapped Divide_overflow
      else begin
        set regs guest_eax (Int64.to_int (Int64.logand q 0xFFFFFFFFL));
        set regs guest_edx (Int64.to_int (Int64.logand rem 0xFFFFFFFFL));
        Next
      end
    end
    (* Unsigned: EDX:EAX / d in native ints, 16 quotient bits at a time
       (each partial dividend stays below 2^48), since [Int64]'s unsigned
       division is a library call on boxed values. The quotient fits 32
       bits iff EDX < d. *)
    else if hi >= d32 then Trapped Divide_overflow
    else begin
      let n1 = (hi lsl 16) lor (lo lsr 16) in
      let n0 = ((n1 mod d32) lsl 16) lor (lo land 0xFFFF) in
      set regs guest_eax (((n1 / d32) lsl 16) lor (n0 / d32));
      set regs guest_edx (n0 mod d32);
      Next
    end
  | Trap (t, r) -> if get regs r <> 0 then Trapped t else Next

type block_result =
  | Fell_through
  | Trap of Hinsn.trap
  | Out_of_steps

let run_block ~code ~regs ~mem ~fuel =
  let n = Array.length code in
  let rec go pc budget =
    if budget <= 0 then Out_of_steps
    else if pc >= n then Fell_through
    else
      match step ~regs ~mem code.(pc) with
      | Next -> go (pc + 1) (budget - 1)
      | Goto tgt -> go tgt (budget - 1)
      | Trapped t -> Trap t
  in
  go 0 fuel
