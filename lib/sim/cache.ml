(* Set-associative cache and TLB models with LRU replacement.

   Only hit/miss behaviour is modelled — the timing cost of a miss is
   charged by the machine's cycle model.  The same structure serves as a
   TLB by using page-sized "lines".  The set count must be a power of
   two, so a line's set is a mask, not a division.

   Each set keeps its lines in order of use, the most recent first, so
   LRU needs no timestamps: an access moves its line to the front, and a
   miss drops the line at the back.  Empty ways hold -1 and sit behind
   every line that was ever installed, in way order, as they would with
   the lowest-numbered empty way filled first.  A line already in front
   is left where it is, so an access to it changes nothing but the
   access count. *)

type t = {
  set_mask : int; (* sets - 1 *)
  assoc : int;
  line_bits : int;
  tags : int array; (* sets * assoc, each set most recently used first *)
  mutable accesses : int;
  mutable misses : int;
}

let create ~size ~line ~assoc =
  let line_bits =
    let rec lb n acc = if n <= 1 then acc else lb (n / 2) (acc + 1) in
    lb line 0
  in
  let sets = max 1 (size / (line * assoc)) in
  if sets land (sets - 1) <> 0 then
    invalid_arg (Printf.sprintf "Cache.create: %d sets is not a power of two" sets);
  {
    set_mask = sets - 1;
    assoc;
    line_bits;
    tags = Array.make (sets * assoc) (-1);
    accesses = 0;
    misses = 0;
  }

(* Returns true on hit.  A miss installs the line in place of the set's
   least recently used one. *)
let access c addr =
  c.accesses <- c.accesses + 1;
  let line = addr lsr c.line_bits in
  let base = (line land c.set_mask) * c.assoc in
  let last = base + c.assoc - 1 in
  let tags = c.tags in
  let i = ref base in
  while !i < last && Array.unsafe_get tags !i <> line do
    incr i
  done;
  let hit = Array.unsafe_get tags !i = line in
  if not hit then c.misses <- c.misses + 1;
  for j = !i downto base + 1 do
    Array.unsafe_set tags j (Array.unsafe_get tags (j - 1))
  done;
  Array.unsafe_set tags base line;
  hit
