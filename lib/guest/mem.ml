exception Fault of { addr : int; access : string }

let page_size = 4096
let page_of addr = addr lsr 12

type t = { data : Bytes.t; pages : int; gens : int array }

let create ~size =
  let pages = (size + page_size - 1) / page_size in
  { data = Bytes.make (pages * page_size) '\000'; pages; gens = Array.make pages 0 }

let size t = Bytes.length t.data

let copy t =
  { data = Bytes.copy t.data; pages = t.pages; gens = Array.copy t.gens }

let check t addr n access =
  if addr < 0 || addr + n > Bytes.length t.data then
    raise (Fault { addr; access })

let read_u8 t addr =
  check t addr 1 "read1";
  Char.code (Bytes.unsafe_get t.data addr)

let read_u32 t addr =
  check t addr 4 "read4";
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF

let touch t addr =
  let p = page_of addr in
  if p < t.pages then t.gens.(p) <- t.gens.(p) + 1

let write_u8 t addr v =
  check t addr 1 "write1";
  Bytes.unsafe_set t.data addr (Char.chr (v land 0xFF));
  touch t addr

let write_u32 t addr v =
  check t addr 4 "write4";
  Bytes.set_int32_le t.data addr (Int32.of_int v);
  touch t addr;
  (* A 4-byte store can straddle a page boundary. *)
  if page_of addr <> page_of (addr + 3) then touch t (addr + 3)

let load_string t ~at s =
  check t at (String.length s) "load";
  Bytes.blit_string s 0 t.data at (String.length s);
  let first = page_of at and last = page_of (at + max 0 (String.length s - 1)) in
  for p = first to last do
    if p < t.pages then t.gens.(p) <- t.gens.(p) + 1
  done

let read_string t ~at ~len =
  check t at len "read";
  Bytes.sub_string t.data at len

let page_generation t ~page = if page < t.pages then t.gens.(page) else 0

let fnv_prime = 0x100000001b3

(* A zero byte leaves [h lxor 0 = h], so folding a page of zeros only
   multiplies the state by [fnv_prime ^ page_size] (mod 2^62). *)
let zero_page_factor =
  let f = ref 1 in
  for _ = 1 to page_size do
    f := (!f * fnv_prime) land max_int
  done;
  !f

(* A page whose generation is still 0 was never stored to, so it still
   holds the zeros [create] filled it with. *)
let checksum t =
  let h = ref 0xcbf29ce4 in
  for p = 0 to t.pages - 1 do
    if t.gens.(p) = 0 then h := (!h * zero_page_factor) land max_int
    else
      for i = p * page_size to ((p + 1) * page_size) - 1 do
        h := ((!h lxor Char.code (Bytes.unsafe_get t.data i)) * fnv_prime) land max_int
      done
  done;
  !h
