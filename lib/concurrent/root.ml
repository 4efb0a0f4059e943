let rec update root f =
  let s = Atomic.get root in
  let s', r = f s in
  if s' == s || Atomic.compare_and_set root s s' then r else update root f
