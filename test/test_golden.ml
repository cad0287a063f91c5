(* Golden translation test: the translator's output, bit for bit.

   Every workload's blocks are found by a static crawl from the entry
   point over [Block.direct_successors] (breadth-first, capped per
   program), translated under three knob sets, and hashed over each
   block's address, code, terminator, modelled translation cycles and
   checksum. The expected digest and block count were recorded before the
   IR passes were rewritten over arrays; any change to them means a
   translated block changed. *)

open Vat_guest
open Vat_core
open Vat_workloads

let knob_sets =
  [ Config.default;
    { Config.default with optimize = false };
    { Config.default with superblocks = true } ]

let blocks_per_program = 800

(* Breadth-first crawl from the entry point, at most [blocks_per_program]
   blocks, in discovery order. *)
let crawl cfg (p : Program.t) =
  let fetch = Mem.read_u8 p.mem in
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  let out = ref [] and count = ref 0 in
  let visit a = if not (Hashtbl.mem seen a) then (Hashtbl.add seen a (); Queue.add a q) in
  visit p.entry;
  while !count < blocks_per_program && not (Queue.is_empty q) do
    let b = Translate.translate cfg ~fetch ~guest_addr:(Queue.pop q) in
    out := b :: !out;
    incr count;
    List.iter (fun (a, _) -> visit a) (Block.direct_successors b)
  done;
  List.rev !out

let block_digest (b : Block.t) =
  Digest.string
    (Marshal.to_string
       (b.guest_addr, b.code, b.term, b.translation_cycles, b.checksum)
       [ Marshal.No_sharing ])

let test_golden () =
  let buf = Buffer.create (1 lsl 16) and blocks = ref 0 in
  List.iter
    (fun bench ->
      let p = Suite.load bench in
      List.iter
        (fun cfg ->
          List.iter
            (fun b ->
              incr blocks;
              Buffer.add_string buf (block_digest b))
            (crawl cfg p))
        knob_sets)
    Suite.all;
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Alcotest.(check int) "blocks translated" 21632 !blocks;
  Alcotest.(check string) "translation digest" "f6a8a51872e6d40ceeab69bedaf83bd1" digest

let suite = [ Alcotest.test_case "every block bit-identical" `Quick test_golden ]
