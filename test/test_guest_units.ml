(* Unit tests for the guest substrate: memory, assembler, interpreter
   details, and syscalls. *)

open Vat_guest

(* --- Memory ------------------------------------------------------------ *)

let test_mem_endianness () =
  let m = Mem.create ~size:4096 in
  Mem.write_u32 m 0 0x11223344;
  Alcotest.(check int) "little endian low byte" 0x44 (Mem.read_u8 m 0);
  Alcotest.(check int) "little endian high byte" 0x11 (Mem.read_u8 m 3);
  Mem.write_u8 m 1 0xAB;
  Alcotest.(check int) "byte patch visible" 0x1122AB44 (Mem.read_u32 m 0)

let test_mem_bounds () =
  let m = Mem.create ~size:4096 in
  Alcotest.check_raises "read oob"
    (Mem.Fault { addr = 4096; access = "read4" })
    (fun () -> ignore (Mem.read_u32 m 4096));
  Alcotest.check_raises "straddling end"
    (Mem.Fault { addr = 4094; access = "write4" })
    (fun () -> Mem.write_u32 m 4094 0)

let test_mem_page_generations () =
  let m = Mem.create ~size:(3 * Mem.page_size) in
  let g0 = Mem.page_generation m ~page:0 in
  Mem.write_u8 m 10 1;
  Alcotest.(check bool) "store bumps" true (Mem.page_generation m ~page:0 > g0);
  let g1 = Mem.page_generation m ~page:1 in
  (* A word store straddling pages 0 and 1 bumps both. *)
  Mem.write_u32 m (Mem.page_size - 2) 0xFFFFFFFF;
  Alcotest.(check bool) "straddle bumps next page" true
    (Mem.page_generation m ~page:1 > g1);
  let g2 = Mem.page_generation m ~page:2 in
  Alcotest.(check int) "untouched page unchanged" g2
    (Mem.page_generation m ~page:2)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"mem: u32 write/read round trip" ~count:500
    QCheck.(pair (int_bound 4000) (map (fun v -> v land 0xFFFFFFFF) int))
    (fun (addr, v) ->
      let m = Mem.create ~size:8192 in
      Mem.write_u32 m addr v;
      Mem.read_u32 m addr = v)

(* [Mem.checksum] backs run digests, VM fingerprints and every checkpoint
   capture, and all of those call the same function, so digest-equality
   tests cannot catch a wrong checksum. Compare it against a plain FNV
   fold over every byte, written out here. *)
let fnv_fold m =
  let h = ref 0xcbf29ce4 in
  for i = 0 to Mem.size m - 1 do
    h := ((!h lxor Mem.read_u8 m i) * 0x100000001b3) land max_int
  done;
  !h

type mem_op = W8 of int * int | W32 of int * int | Load of int * string

let apply_op m = function
  | W8 (a, v) -> Mem.write_u8 m a v
  | W32 (a, v) -> Mem.write_u32 m a v
  | Load (a, s) -> Mem.load_string m ~at:a s

let show_op = function
  | W8 (a, v) -> Printf.sprintf "w8 0x%x 0x%x" a v
  | W32 (a, v) -> Printf.sprintf "w32 0x%x 0x%x" a v
  | Load (a, s) -> Printf.sprintf "load 0x%x (%d bytes)" a (String.length s)

(* Six pages (the size rounds up), so most pages in a case stay unstored. *)
let checksum_mem_size = (5 * Mem.page_size) + 100
let checksum_mem_bytes = Mem.size (Mem.create ~size:checksum_mem_size)

let gen_mem_op =
  let open QCheck.Gen in
  (* Addresses cluster on page boundaries so stores and loads straddle. *)
  let addr width =
    let last = checksum_mem_bytes - width in
    oneof
      [ int_bound last;
        map
          (fun (p, d) -> max 0 (min last ((p * Mem.page_size) + d)))
          (pair (int_range 1 5) (int_range (-6) 3)) ]
  in
  let value bits =
    oneof [ return 0; int_bound 0xFF; int_bound ((1 lsl bits) - 1) ]
  in
  let byte = oneof [ return '\000'; char ] in
  frequency
    [ (4, map2 (fun a v -> W8 (a, v)) (addr 1) (value 8));
      (4, map2 (fun a v -> W32 (a, v)) (addr 4) (value 32));
      ( 1,
        int_range 0 (2 * Mem.page_size) >>= fun len ->
        map2 (fun a s -> Load (a, s)) (addr len) (string_size ~gen:byte (return len)) ) ]

let arb_mem_ops =
  let ops = QCheck.Gen.(list_size (int_range 0 12) gen_mem_op) in
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat " | "
        (List.map (fun l -> String.concat "; " (List.map show_op l)) [ a; b; c ]))
    (QCheck.Gen.triple ops ops ops)

let prop_mem_checksum_is_fnv =
  QCheck.Test.make ~name:"mem: checksum = byte-by-byte FNV fold" ~count:300
    arb_mem_ops (fun (before, on_copy, on_original) ->
      let m = Mem.create ~size:checksum_mem_size in
      let ok m = Mem.checksum m = fnv_fold m in
      List.iter (apply_op m) before;
      let before_ok = ok m in
      let c = Mem.copy m in
      let copy_ok = ok c in
      (* The copy and the original diverge; each must still match its own
         bytes. *)
      List.iter (apply_op c) on_copy;
      List.iter (apply_op m) on_original;
      before_ok && copy_ok && ok c && ok m)

(* --- Assembler --------------------------------------------------------- *)

open Asm.Dsl

let test_asm_labels () =
  let result =
    Asm.assemble ~origin:0x1000
      [ label "a"; nop; nop; label "b"; ret; Asm.Align 16; label "c" ]
  in
  Alcotest.(check int) "a at origin" 0x1000 (Asm.lookup result "a");
  Alcotest.(check int) "b after two nops" 0x1002 (Asm.lookup result "b");
  Alcotest.(check int) "c aligned" 0x1010 (Asm.lookup result "c")

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Error "duplicate label x") (fun () ->
      ignore (Asm.assemble ~origin:0 [ label "x"; label "x" ]))

let test_asm_undefined_symbol () =
  Alcotest.check_raises "undefined" (Asm.Error "undefined symbol nope")
    (fun () -> ignore (Asm.assemble ~origin:0 [ jmp "nope" ]))

let test_asm_symbol_arithmetic () =
  let result =
    Asm.assemble ~origin:0x2000
      [ mov (r eax) (isym ~off:8 "data"); label "data"; Asm.Word (Asm.Const 0) ]
  in
  let data = Asm.lookup result "data" in
  (* The encoded immediate (last 4 bytes of the mov) is data+8. *)
  let imm =
    Char.code result.image.[4]
    lor (Char.code result.image.[5] lsl 8)
    lor (Char.code result.image.[6] lsl 16)
    lor (Char.code result.image.[7] lsl 24)
  in
  Alcotest.(check int) "sym+off immediate" (data + 8) imm

let test_asm_jump_targets_resolve () =
  (* A jump over a variable amount of padding lands exactly on the label. *)
  List.iter
    (fun pad ->
      let items =
        [ label "start"; jmp "end_"; Asm.Space pad; label "end_";
          mov (r ebx) (i 7); mov (r eax) (i Syscall.sys_exit);
          int_ Syscall.vector ]
      in
      let t = Interp.create (Program.of_asm items) in
      match Interp.run ~fuel:100 t with
      | Interp.Exited 7 -> ()
      | _ -> Alcotest.failf "pad %d: jump missed" pad)
    [ 0; 1; 13; 255 ]

(* --- Interpreter corner cases ------------------------------------------ *)

let run items =
  let t = Interp.create (Program.of_asm items) in
  (Interp.run ~fuel:10_000 t, t)

let test_push_esp_semantics () =
  (* push esp stores the pre-decrement value. *)
  let o, t =
    run
      [ label "start";
        push (r esp);
        pop (r eax);          (* eax = old esp *)
        mov (r ebx) (r esp);  (* back to original *)
        sub (r ebx) (r eax);  (* must be 0 *)
        mov (r eax) (i Syscall.sys_exit);
        int_ Syscall.vector ]
  in
  (match o with
   | Interp.Exited 0 -> ()
   | _ -> Alcotest.fail "bad exit");
  ignore t

let test_movb_preserves_upper () =
  let o, t =
    run
      [ label "start";
        mov (r eax) (i 0x11223344);
        mov (r ecx) (i 0xFF);
        movb (r eax) (r ecx);
        mov (r ebx) (r eax);
        mov (r eax) (i Syscall.sys_exit);
        int_ Syscall.vector ]
  in
  (match o with Interp.Exited _ -> () | _ -> Alcotest.fail "no exit");
  Alcotest.(check int) "upper bytes preserved" 0x112233FF (Interp.reg t EBX)

let test_xchg () =
  let o, t =
    run
      [ label "start";
        mov (r ecx) (i 111);
        mov (r edx) (i 222);
        xchg ecx edx;
        mov (r eax) (i Syscall.sys_exit);
        mov (r ebx) (i 0);
        int_ Syscall.vector ]
  in
  (match o with Interp.Exited _ -> () | _ -> Alcotest.fail "no exit");
  Alcotest.(check int) "ecx" 222 (Interp.reg t ECX);
  Alcotest.(check int) "edx" 111 (Interp.reg t EDX)

(* --- Syscalls ----------------------------------------------------------- *)

let test_syscall_read_input () =
  let items =
    [ label "start";
      mov (r ebx) (i 0);
      mov (r ecx) (isym "buf");
      mov (r edx) (i 5);
      mov (r eax) (i Syscall.sys_read);
      int_ Syscall.vector;
      (* Echo what was read. *)
      mov (r edx) (r eax);
      mov (r ebx) (i 1);
      mov (r ecx) (isym "buf");
      mov (r eax) (i Syscall.sys_write);
      int_ Syscall.vector;
      mov (r ebx) (i 0);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4096;
      label "buf";
      Asm.Space 16 ]
  in
  let t = Interp.create ~input:"hello world" (Program.of_asm items) in
  (match Interp.run ~fuel:1000 t with
   | Interp.Exited 0 -> ()
   | _ -> Alcotest.fail "bad exit");
  Alcotest.(check string) "echoed prefix" "hello" (Interp.output t)

let test_syscall_brk () =
  let items =
    [ label "start";
      mov (r ebx) (i 0);
      mov (r eax) (i Syscall.sys_brk);
      int_ Syscall.vector;      (* query: eax = current brk *)
      mov (r ecx) (r eax);
      add (r ecx) (i 4096);
      mov (r ebx) (r ecx);
      mov (r eax) (i Syscall.sys_brk);
      int_ Syscall.vector;      (* grow *)
      sub (r eax) (r ecx);      (* 0 if brk moved exactly *)
      mov (r ebx) (r eax);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]
  in
  match run items with
  | Interp.Exited 0, _ -> ()
  | _ -> Alcotest.fail "brk did not grow as requested"

let test_syscall_unknown_enosys () =
  let items =
    [ label "start";
      mov (r eax) (i 9999);
      int_ Syscall.vector;
      (* -ENOSYS = -38; make it the exit code's low bits. *)
      neg (r eax);
      mov (r ebx) (r eax);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]
  in
  match run items with
  | Interp.Exited 38, _ -> ()
  | Interp.Exited n, _ -> Alcotest.failf "expected 38, got %d" n
  | _ -> Alcotest.fail "no exit"

let suite =
  [ Alcotest.test_case "memory endianness" `Quick test_mem_endianness;
    Alcotest.test_case "memory bounds" `Quick test_mem_bounds;
    Alcotest.test_case "page generations" `Quick test_mem_page_generations;
    Alcotest.test_case "assembler labels/align" `Quick test_asm_labels;
    Alcotest.test_case "duplicate label rejected" `Quick test_asm_duplicate_label;
    Alcotest.test_case "undefined symbol rejected" `Quick
      test_asm_undefined_symbol;
    Alcotest.test_case "symbol arithmetic" `Quick test_asm_symbol_arithmetic;
    Alcotest.test_case "jumps land on labels" `Quick test_asm_jump_targets_resolve;
    Alcotest.test_case "push esp" `Quick test_push_esp_semantics;
    Alcotest.test_case "movb preserves upper bytes" `Quick
      test_movb_preserves_upper;
    Alcotest.test_case "xchg" `Quick test_xchg;
    Alcotest.test_case "syscall read" `Quick test_syscall_read_input;
    Alcotest.test_case "syscall brk" `Quick test_syscall_brk;
    Alcotest.test_case "unknown syscall -ENOSYS" `Quick
      test_syscall_unknown_enosys ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_mem_roundtrip; prop_mem_checksum_is_fnv ]
