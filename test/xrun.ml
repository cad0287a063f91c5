open Vat_guest
open Vat_host
open Vat_ir
open Vat_core

type outcome =
  | Exited of int
  | Fault of string
  | Out_of_fuel

let scratch_base = Exec.scratch_base

type t = {
  cfg : Config.t;
  prog : Program.t;
  regs : int array;
  scratch : int array;
  world : Syscall.world;
  memo : Translate.Memo.t;
  mutable pc : int;
}

let create ?input cfg prog =
  let regs = Array.make 32 0 in
  regs.(Translate.guest_pin ESP) <- prog.Program.initial_esp;
  regs.(Regalloc.scratch_base_reg) <- scratch_base;
  { cfg;
    prog;
    regs;
    scratch = Array.make 4096 0;
    world = Syscall.create_world ?input ~brk0:prog.Program.brk0 ();
    memo = Translate.Memo.create ();
    pc = prog.Program.entry }

let output t = Syscall.output t.world
let guest_reg t r = t.regs.(Translate.guest_pin r)
let flags t = t.regs.(Hinsn.flags_reg)

(* The memo checks the guest bytes each block was translated from, so
   self-modifying code retranslates; page generations go unused here. *)
let lookup_block t addr =
  let mem = t.prog.Program.mem in
  fst
    (Translate.translate_memo ~memo:t.memo t.cfg ~fetch:(Mem.read_u8 mem)
       ~page_gen:(fun ~page:_ -> 0) ~guest_addr:addr)

exception Guest_mem_fault of string

let mem_access t : Hexec.mem_access =
  let mem = t.prog.Program.mem in
  let load w addr =
    if addr >= scratch_base then t.scratch.((addr - scratch_base) lsr 2)
    else
      match w with
      | Hinsn.W8 -> Mem.read_u8 mem addr
      | Hinsn.W8s ->
        let b = Mem.read_u8 mem addr in
        if b land 0x80 <> 0 then b lor 0xFFFFFF00 else b
      | Hinsn.W32 -> Mem.read_u32 mem addr
  in
  let store w addr v =
    if addr >= scratch_base then t.scratch.((addr - scratch_base) lsr 2) <- v
    else
      match w with
      | Hinsn.W8 -> Mem.write_u8 mem addr v
      | Hinsn.W32 -> Mem.write_u32 mem addr v
      | Hinsn.W8s -> invalid_arg "store W8s"
  in
  { load =
      (fun w addr ->
        try load w addr
        with Mem.Fault { addr; access } ->
          raise
            (Guest_mem_fault
               (Printf.sprintf "memory fault (%s) at 0x%x" access addr)));
    store =
      (fun w addr v ->
        try store w addr v
        with Mem.Fault { addr; access } ->
          raise
            (Guest_mem_fault
               (Printf.sprintf "memory fault (%s) at 0x%x" access addr))) }

let trap_message : Hinsn.trap -> string = function
  | Divide_error -> "divide error"
  | Divide_overflow -> "divide overflow"

let run ~fuel t =
  let mem = mem_access t in
  let budget = ref fuel in
  let result = ref None in
  while !result = None do
    let block = lookup_block t t.pc in
    budget := !budget - max 1 block.guest_insns;
    (match
       Hexec.run_block ~code:block.code ~regs:t.regs ~mem ~fuel:100000
     with
     | exception Guest_mem_fault msg -> result := Some (Fault msg)
     | Hexec.Trap trap -> result := Some (Fault (trap_message trap))
     | Hexec.Out_of_steps -> result := Some (Fault "host block runaway")
     | Hexec.Fell_through -> begin
       match block.term with
       | T_jmp { target } -> t.pc <- target
       | T_jcc { taken; fall } ->
         t.pc <- (if t.regs.(Block.term_reg) <> 0 then taken else fall)
       | T_jind _ -> t.pc <- t.regs.(Block.term_reg)
       | T_call { target; _ } -> t.pc <- target
       | T_syscall { next } -> begin
         let reg r = t.regs.(Translate.guest_pin r) in
         match
           Syscall.dispatch t.world t.prog.Program.mem ~eax:(reg EAX)
             ~ebx:(reg EBX) ~ecx:(reg ECX) ~edx:(reg EDX)
         with
         | Continue v ->
           t.regs.(Translate.guest_pin EAX) <- v land 0xFFFFFFFF;
           t.pc <- next
         | Exit status -> result := Some (Exited status)
       end
       | T_fault msg -> result := Some (Fault msg)
     end);
    if !result = None && !budget <= 0 then result := Some Out_of_fuel
  done;
  match !result with Some r -> r | None -> assert false

let digest t =
  Interp.state_digest t.prog.Program.mem
    ~reg:(fun i -> t.regs.(Hinsn.guest_reg_base + i))
    ~flags:t.regs.(Hinsn.flags_reg) ~output:(output t)
