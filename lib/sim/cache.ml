(* Set-associative cache and TLB models with LRU replacement.

   Only hit/miss behaviour is modelled — the timing cost of a miss is
   charged by the machine's cycle model.  The same structure serves as a
   TLB by using page-sized "lines".  The set count must be a power of
   two, so a line's set is a mask, not a division. *)

type t = {
  set_mask : int; (* sets - 1 *)
  assoc : int;
  line_bits : int;
  tags : int array; (* sets * assoc, -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mutable tick : int;
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
    stamps = Array.make (sets * assoc) 0;
    tick = 0;
    accesses = 0;
    misses = 0;
  }

(* Returns true on hit.  A miss installs the line in the set's least
   recently used way (the lowest-numbered one on a tie). *)
let access c addr =
  c.accesses <- c.accesses + 1;
  let tick = c.tick + 1 in
  c.tick <- tick;
  let line = addr lsr c.line_bits in
  let base = (line land c.set_mask) * c.assoc in
  let stop = base + c.assoc in
  let tags = c.tags in
  let i = ref base in
  while !i < stop && Array.unsafe_get tags !i <> line do
    incr i
  done;
  if !i < stop then begin
    Array.unsafe_set c.stamps !i tick;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    let stamps = c.stamps in
    let victim = ref base in
    for j = base + 1 to stop - 1 do
      if Array.unsafe_get stamps j < Array.unsafe_get stamps !victim then victim := j
    done;
    Array.unsafe_set tags !victim line;
    Array.unsafe_set stamps !victim tick;
    false
  end
