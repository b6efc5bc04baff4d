package codec

// MaxValueDepth exposes the nesting bound to the external tests.
const MaxValueDepth = maxValueDepth
