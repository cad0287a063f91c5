(* Encoder/decoder round-trip properties for the G86 variable-length
   encoding, plus decoder robustness on arbitrary bytes. *)

open Vat_guest

let mask32 v = v land 0xFFFFFFFF

(* Generator for valid instructions (respecting ISA constraints: no
   immediate destinations, at most one memory operand, bounded shift
   counts and vectors). *)
module G = struct
  open QCheck.Gen

  let reg = map Insn.reg_of_index (int_range 0 7)
  let scale = oneofl [ Insn.S1; S2; S4; S8 ]
  let cond = map Insn.cond_of_index (int_range 0 15)
  let imm = map mask32 (oneof [ int_range (-70000) 70000; int_bound 0xFFFF ])

  let mem_operand =
    let* base = opt reg in
    let* index = opt (pair reg scale) in
    let* disp = imm in
    return { Insn.base; index; disp }

  let operand_rm =
    oneof [ map (fun r -> Insn.Reg r) reg; map (fun m -> Insn.Mem m) mem_operand ]

  let operand_any =
    oneof [ operand_rm; map (fun v -> Insn.Imm v) imm ]

  (* dst/src pair with at most one memory operand. *)
  let dst_src =
    let* dst = operand_rm in
    match dst with
    | Insn.Mem _ ->
      let* src =
        oneof [ map (fun r -> Insn.Reg r) reg; map (fun v -> Insn.Imm v) imm ]
      in
      return (dst, src)
    | _ ->
      let* src = operand_any in
      return (dst, src)

  let gmap = map
  and gmap2 = map2
  and gmap3 = map3

  let insn : int Insn.t t =
    let open Insn in
    ignore (gmap3 : _ -> _ -> _ -> _ -> _);
    frequency
      [ (4, gmap (fun (d, s) -> Mov (d, s)) dst_src);
        (2, gmap (fun (d, s) -> Movb (d, s)) dst_src);
        (1, gmap2 (fun r s -> Movzxb (r, s)) reg operand_rm);
        (1, gmap2 (fun r s -> Movsxb (r, s)) reg operand_rm);
        (1, gmap2 (fun r m -> Lea (r, m)) reg mem_operand);
        (6,
         gmap2
           (fun op (d, s) -> Alu (op, d, s))
           (oneofl [ Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test ])
           dst_src);
        (2,
         gmap2 (fun op d -> Unop (op, d)) (oneofl [ Inc; Dec; Neg; Not ])
           operand_rm);
        (2,
         gmap3
           (fun op d n -> Shift (op, d, n))
           (oneofl [ Shl; Shr; Sar; Rol; Ror ])
           operand_rm
           (oneof
              [ gmap (fun n -> Sh_imm n) (int_range 0 31); return Sh_cl ]));
        (1, gmap2 (fun r s -> Imul (r, s)) reg operand_any);
        (1, gmap (fun s -> Mul s) operand_rm);
        (1, gmap (fun s -> Div s) operand_rm);
        (1, gmap (fun s -> Idiv s) operand_rm);
        (1, return Cdq);
        (2, gmap (fun s -> Push s) operand_any);
        (2, gmap (fun d -> Pop d) operand_rm);
        (1, gmap2 (fun a b -> Xchg (a, b)) reg reg);
        (1, gmap2 (fun c d -> Setcc (c, d)) cond operand_rm);
        (1,
         gmap3 (fun c rd s -> Cmovcc (c, rd, s)) cond reg operand_any);
        (1, return Rep_movsb);
        (1, return Rep_stosb);
        (2, gmap (fun a -> Jmp (Direct a)) imm);
        (1, gmap (fun op -> Jmp (Indirect op)) operand_rm);
        (2, gmap2 (fun c a -> Jcc (c, a)) cond imm);
        (2, gmap (fun a -> Call (Direct a)) imm);
        (1, gmap (fun op -> Call (Indirect op)) operand_rm);
        (1, return Ret);
        (1, gmap (fun v -> Int v) (int_bound 255));
        (1, return Nop);
        (1, return Hlt) ]
end

let arb_insn = QCheck.make ~print:Insn.to_string G.insn

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round trip" ~count:5000 arb_insn
    (fun insn ->
      let at = 0x4000 in
      let bytes = Encode.encode ~at insn in
      let insn', len = Decode.decode_string bytes ~at ~origin:at in
      insn' = insn && len = String.length bytes)

let prop_sizeof =
  QCheck.Test.make ~name:"sizeof matches encoded length" ~count:2000 arb_insn
    (fun insn ->
      String.length (Encode.encode ~at:0x1234 insn) = Encode.sizeof insn)

let prop_size_value_independent =
  QCheck.Test.make ~name:"length independent of address" ~count:1000 arb_insn
    (fun insn ->
      Encode.sizeof insn = String.length (Encode.encode ~at:0 insn)
      && Encode.sizeof insn = String.length (Encode.encode ~at:0xFFFF00 insn))

let test_rejects_two_mems () =
  let m : int Insn.mem_operand = { base = Some EAX; index = None; disp = 0 } in
  Alcotest.check_raises "two memory operands"
    (Encode.Invalid "two memory operands") (fun () ->
      ignore (Encode.sizeof (Insn.Mov (Mem m, Mem m))))

let test_rejects_imm_dst () =
  Alcotest.check_raises "immediate destination"
    (Encode.Invalid "immediate destination") (fun () ->
      ignore (Encode.sizeof (Insn.Mov (Imm 1, Reg EAX))))

let prop_decode_garbage_terminates =
  (* Arbitrary bytes either decode to something (with positive length) or
     raise Bad_instruction — never loop or return nonsense lengths. *)
  QCheck.Test.make ~name:"decoder robust on garbage" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 16 32))
    (fun s ->
      match Decode.decode_string s ~at:0 ~origin:0 with
      | _, len -> len > 0 && len <= 16
      | exception Decode.Bad_instruction _ -> true)

let test_variable_length () =
  (* The encoding really is variable length: collect distinct sizes. *)
  let sizes =
    List.sort_uniq compare
      [ Encode.sizeof Insn.Ret;
        Encode.sizeof (Insn.Mov (Reg EAX, Reg EBX));
        Encode.sizeof (Insn.Mov (Reg EAX, Imm 42));
        Encode.sizeof
          (Insn.Mov
             ( Reg EAX,
               Mem { base = Some ESI; index = Some (EDI, S4); disp = 100 } ));
        Encode.sizeof
          (Insn.Alu
             ( Add,
               Mem { base = Some ESI; index = None; disp = 4 },
               Imm 123456 )) ]
  in
  if List.length sizes < 4 then
    Alcotest.failf "expected at least 4 distinct lengths, got %d"
      (List.length sizes)

(* [mov $0x70100, %eax] with the operands swapped: an immediate as the
   written destination. The decoder refuses it, so both the interpreter
   and the timed machine end in a guest fault rather than an exception. *)
let test_decode_rejects_imm_dst () =
  let bytes = [ 0x01; 0x01; 0x00; 0x01; 0x07; 0x00; 0x00; 0x00 ] in
  let s = String.init (List.length bytes) (fun i -> Char.chr (List.nth bytes i)) in
  (match Decode.decode_string s ~at:0 ~origin:0 with
   | _ -> Alcotest.fail "decoded an immediate destination"
   | exception Decode.Bad_instruction _ -> ());
  let prog () =
    Program.of_asm (Asm.Label "start" :: List.map (fun b -> Asm.Byte b) bytes)
  in
  (match Interp.run ~fuel:100 (Interp.create (prog ())) with
   | Interp.Fault _ -> ()
   | Interp.Exited _ | Interp.Out_of_fuel -> Alcotest.fail "Interp: expected a fault");
  match (Vat_core.Vm.run ~fuel:100 Vat_core.Config.default (prog ())).outcome with
  | Vat_core.Exec.Fault _ -> ()
  | Vat_core.Exec.Exited _ | Vat_core.Exec.Out_of_fuel ->
    Alcotest.fail "Vm: expected a fault"

let suite =
  [ Alcotest.test_case "rejects two memory operands" `Quick test_rejects_two_mems;
    Alcotest.test_case "rejects immediate destination" `Quick test_rejects_imm_dst;
    Alcotest.test_case "variable-length encoding" `Quick test_variable_length ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip; prop_sizeof; prop_size_value_independent;
        prop_decode_garbage_terminates ]
  @ [ Alcotest.test_case "decoder rejects immediate destination" `Quick
        test_decode_rejects_imm_dst ]
