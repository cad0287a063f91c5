open Vat_desim
open Asm.Dsl

type params = {
  functions : int;
  blocks_per_fun : int;
  insns_per_block : int;
  loops : bool;
  data_bytes : int;
}

let default_params =
  { functions = 4;
    blocks_per_fun = 4;
    insns_per_block = 8;
    loops = true;
    data_bytes = 8192 }

(* Registers the generator may freely write. ESI anchors the data region,
   EBP is the loop counter, ESP is the stack pointer. *)
let writable = [| Insn.EAX; ECX; EDX; EBX; EDI |]

let conds =
  [| Insn.E; NE; L; LE; G; GE; B; BE; A; AE; S; NS; O; NO; P; NP |]

let pick_reg rng = Rng.pick rng writable

(* Divisors exclude EDX: the divide guards set EDX (the dividend's high
   word) before or-ing the divisor odd, and an odd EDX divisor would make
   the quotient overflow. *)
let divisors = [| Insn.EAX; ECX; EBX; EDI |]

(* A memory operand safely inside the data region. *)
let data_operand rng p =
  let disp = Rng.int rng (p.data_bytes - 64) in
  m ~base:esi ~disp ()

let reg_or_imm rng =
  if Rng.bool rng then r (pick_reg rng)
  else i (Rng.int_in rng (-70000) 70000)

(* Any readable operand: register, immediate, or safe memory. *)
let any_src rng p =
  match Rng.int rng 4 with
  | 0 -> r (pick_reg rng)
  | 1 -> i (Rng.int_in rng (-70000) 70000)
  | _ -> data_operand rng p

let reg_or_mem rng p =
  if Rng.bool rng then r (pick_reg rng) else data_operand rng p

(* A source operand compatible with [dst]: at most one of the two may be a
   memory operand (the ISA rule). *)
let src_for rng p (dst : Asm.expr Insn.operand) =
  match dst with
  | Mem _ -> reg_or_imm rng
  | Reg _ | Imm _ -> any_src rng p

let alu_ops = [| Insn.Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test |]
let shift_ops = [| Insn.Shl; Shr; Sar; Rol; Ror |]
let unops = [| Insn.Inc; Dec; Neg; Not |]

(* One random instruction "package" (some guests need guard sequences). *)
let package rng p : Asm.item list =
  match Rng.int rng 21 with
  | 0 | 1 | 2 ->
    let dst = reg_or_mem rng p in
    [ Asm.Ins (Insn.Alu (Rng.pick rng alu_ops, dst, src_for rng p dst)) ]
  | 3 | 4 ->
    let dst = reg_or_mem rng p in
    [ mov dst (src_for rng p dst) ]
  | 5 ->
    let dst = reg_or_mem rng p in
    [ Asm.Ins (Insn.Unop (Rng.pick rng unops, dst)) ]
  | 6 ->
    let sh = Rng.pick rng shift_ops in
    if Rng.bool rng then
      [ Asm.Ins (Insn.Shift (sh, reg_or_mem rng p, Sh_imm (Rng.int rng 32))) ]
    else
      [ Asm.Ins (Insn.Shift (sh, r (pick_reg rng), Sh_cl)) ]
  | 7 -> [ lea (pick_reg rng)
             (m ~base:esi ~disp:(Rng.int rng p.data_bytes) ()) ]
  | 8 ->
    let dst = reg_or_mem rng p in
    [ movb dst (src_for rng p dst) ]
  | 9 ->
    if Rng.bool rng then [ movzxb (pick_reg rng) (reg_or_mem rng p) ]
    else [ movsxb (pick_reg rng) (reg_or_mem rng p) ]
  | 10 -> [ imul (pick_reg rng) (any_src rng p) ]
  | 11 -> [ mul (reg_or_mem rng p) ]
  | 12 ->
    (* Guarded unsigned divide: EDX=0, divisor forced odd-nonzero. *)
    let d = Rng.pick rng divisors in
    [ xor (r edx) (r edx); or_ (r d) (i 1); div (r d) ]
  | 13 ->
    (* Guarded signed divide: positive dividend and divisor. *)
    let d = Rng.pick rng divisors in
    [ and_ (r eax) (i 0x7FFFFFFF);
      cdq;
      or_ (r d) (i 1);
      and_ (r d) (i 0x7FFFFFFF);
      idiv (r d) ]
  | 14 ->
    let a = pick_reg rng and b = pick_reg rng in
    [ xchg a b ]
  | 15 -> [ setcc (Rng.pick rng conds) (reg_or_mem rng p) ]
  | 16 ->
    (* Balanced stack traffic. *)
    [ push (any_src rng p); pop (r (pick_reg rng)) ]
  | 17 ->
    (* Indexed addressing with a masked index register. *)
    let ix = pick_reg rng in
    let scale = Rng.pick rng [| Insn.S1; S2; S4 |] in
    [ and_ (r ix) (i 0xFF);
      mov (r (pick_reg rng))
        (m ~base:esi ~index:(ix, scale) ~disp:(Rng.int rng (p.data_bytes - 2048)) ()) ]
  | 18 -> [ cdq ]
  | 19 ->
    if Rng.bool rng then
      [ cmp (r (pick_reg rng)) (reg_or_imm rng);
        cmovcc
          (Rng.pick rng conds)
          (pick_reg rng)
          (if Rng.bool rng then r (pick_reg rng) else data_operand rng p) ]
    else begin
      (* A bounded in-region string copy: save ESI (the data anchor),
         point ESI/EDI inside the region, copy, restore. *)
      let src_off = Rng.int rng (p.data_bytes / 2) in
      let dst_off = (p.data_bytes / 2) + Rng.int rng (p.data_bytes / 2 - 600) in
      let len = Rng.int rng 500 in
      [ push (r esi);
        lea edi (m ~base:esi ~disp:dst_off ());
        lea esi (m ~base:esi ~disp:src_off ());
        mov (r ecx) (i len) ]
      @ (if Rng.bool rng then [ rep_movsb ] else [ rep_stosb ])
      @ [ pop (r esi) ]
    end
  | _ -> [ cmp (r (pick_reg rng)) (any_src rng p) ]

let block_body rng p =
  List.concat (List.init (1 + Rng.int rng p.insns_per_block)
                 (fun _ -> package rng p))

(* One function: a chain of blocks with forward conditional branches and
   optional constant-trip loops (EBP is the counter). *)
let make_function rng p ~name ~callees =
  let items = ref [ label name ] in
  let add xs = items := !items @ xs in
  for b = 0 to p.blocks_per_fun - 1 do
    let blk = Printf.sprintf "%s_b%d" name b in
    let next = Printf.sprintf "%s_b%d" name (b + 1) in
    add [ label blk ];
    if p.loops && Rng.int rng 3 = 0 then begin
      let loop_head = Printf.sprintf "%s_loop%d" name b in
      add [ mov (r ebp) (i (1 + Rng.int rng 6)); label loop_head ];
      add (block_body rng p);
      add [ dec (r ebp); jne loop_head ]
    end
    else begin
      add (block_body rng p);
      (* Forward conditional skip over a small chunk. *)
      if Rng.int rng 2 = 0 then begin
        add [ cmp (r (pick_reg rng)) (reg_or_imm rng);
              jcc (Rng.pick rng conds) next ];
        add (block_body rng p)
      end
    end;
    (* Occasionally call a later function (the call graph is acyclic). *)
    (match callees with
     | [] -> ()
     | _ :: _ when Rng.int rng 3 = 0 ->
       add [ call (List.nth callees (Rng.int rng (List.length callees))) ]
     | _ :: _ -> ());
    add [ jmp next ]
  done;
  add [ label (Printf.sprintf "%s_b%d" name p.blocks_per_fun); ret ];
  !items

let generate rng p =
  let fun_names = List.init p.functions (fun i -> Printf.sprintf "f%d" i) in
  (* start: set up ESI, seed registers and data, call f0, exit. *)
  let seed_regs =
    List.concat_map
      (fun rg -> [ mov (r rg) (i (Rng.int_in rng (-1000000) 1000000)) ])
      [ eax; ecx; edx; ebx; edi ]
  in
  let main_body = block_body rng p in
  let calls =
    match fun_names with
    | [] -> []
    | f :: _ -> [ call f ]
  in
  let tail =
    (* Fold some state into EBX so the exit status observes the run. *)
    [ mov (r ebx) (r eax);
      and_ (r ebx) (i 0x7F);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]
  in
  let funs =
    List.concat
      (List.mapi
         (fun i name ->
           let callees =
             List.filteri (fun j _ -> j > i) fun_names
           in
           make_function rng p ~name ~callees)
         fun_names)
  in
  let data =
    let bytes =
      String.init p.data_bytes (fun i ->
          Char.chr ((Rng.int rng 256 + i) land 0xFF))
    in
    (* Page-align so stores to the data region are not mistaken for
       self-modifying code by DBT systems under test. *)
    [ Asm.Align 4096; label "data"; Asm.Ascii bytes ]
  in
  [ label "start"; mov (r esi) (isym "data") ]
  @ seed_regs @ main_body @ calls @ tail @ funs @ data

let generate_program rng p = Program.of_asm (generate rng p)
